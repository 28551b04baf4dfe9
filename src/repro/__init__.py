"""repro: a robust query optimizer via Bayesian cardinality estimation.

Reproduction of Babcock & Chaudhuri, "Towards a Robust Query Optimizer:
A Principled and Practical Approach" (SIGMOD 2005).

The stable public surface is the **session service**::

    from repro import Session

    session = Session(database, policy="moderate")         # T = 80 %
    prepared = session.prepare("SELECT COUNT(*) FROM lineitem "
                               "WHERE lineitem.l_quantity > 45")
    result = prepared.execute()          # cached plan, re-plans on
    print(session.explain(prepared.sql))  # statistics changes

Everything the session wires together remains importable for direct
use — the pieces below are re-exported here because they form the
supported API; deeper internals live in their subpackages and may move
between releases.

Quick tour
----------
- :mod:`repro.service` — the ``Session``/``PreparedQuery`` facade
- :mod:`repro.serving` — multi-tenant serving: admission control,
  bounded worker slots, statistics hot-swap, seeded load generation
- :mod:`repro.catalog` — columnar tables, foreign keys, indexes
- :mod:`repro.expressions` — predicate trees evaluated over frames
- :mod:`repro.engine` — physical operators with work-counter accounting
- :mod:`repro.cost` — counters → simulated seconds; plan cost formulas
- :mod:`repro.stats` — samples, join synopses, histograms
- :mod:`repro.core` — the robust Bayesian estimator (the contribution)
- :mod:`repro.optimizer` — System-R DP optimizer, estimator-pluggable
- :mod:`repro.feedback` — the estimation observatory: observed
  cardinalities folded back into posteriors, q-error and drift ledger
- :mod:`repro.obs` — query traces, metrics registry, explain
- :mod:`repro.analysis` — the paper's Section 5 analytical model
- :mod:`repro.workloads` — TPC-H-shaped and star-schema generators
- :mod:`repro.experiments` — the Section 6 experiment harness

See ``examples/session_service.py`` for an end-to-end walkthrough.
"""

from repro.catalog import (
    Column,
    ColumnType,
    Database,
    ForeignKey,
    Schema,
    Table,
    date_ordinal,
    ordinal_date,
)
from repro.core import (
    CardinalityEstimate,
    CardinalityEstimator,
    ExactCardinalityEstimator,
    HistogramCardinalityEstimator,
    Prior,
    RobustCardinalityEstimator,
    resolve_threshold,
)
from repro.cost import CostModel
from repro.experiments import EstimatorConfig, ExperimentRunner
from repro.expressions import col, lit
from repro.feedback import FeedbackConfig, FeedbackStore, SessionFeedback
from repro.obs import MetricsRegistry, Tracer
from repro.optimizer import (
    Optimizer,
    PlannedQuery,
    SPJQuery,
)
from repro.selection import (
    HistogramPolicy,
    PenaltyPolicy,
    SelectionPolicy,
    ThresholdPolicy,
    resolve_policy,
)
from repro.service import (
    PlanCache,
    PreparedQuery,
    QueryResult,
    Session,
    SessionConfig,
    query_fingerprint,
)
from repro.serving import (
    AdmissionConfig,
    QueryServer,
    ServedQuery,
    TenantSpec,
)
from repro.sql import parse_predicate, parse_query, query_to_sql
from repro.stats import StatisticsManager, load_statistics, save_statistics

__version__ = "1.1.0"

__all__ = [
    # the facade — start here
    "Session",
    "SessionConfig",
    "PreparedQuery",
    "QueryResult",
    "PlanCache",
    "query_fingerprint",
    # multi-tenant serving
    "AdmissionConfig",
    "QueryServer",
    "ServedQuery",
    "TenantSpec",
    # catalog
    "Column",
    "ColumnType",
    "Database",
    "ForeignKey",
    "Schema",
    "Table",
    "date_ordinal",
    "ordinal_date",
    # estimation (the paper's contribution)
    "CardinalityEstimate",
    "CardinalityEstimator",
    "ExactCardinalityEstimator",
    "HistogramCardinalityEstimator",
    "Prior",
    "RobustCardinalityEstimator",
    "resolve_threshold",
    # plan selection policies
    "SelectionPolicy",
    "ThresholdPolicy",
    "PenaltyPolicy",
    "HistogramPolicy",
    "resolve_policy",
    # optimization & costing
    "CostModel",
    "Optimizer",
    "PlannedQuery",
    "SPJQuery",
    # SQL front-end
    "parse_predicate",
    "parse_query",
    "query_to_sql",
    # statistics lifecycle
    "StatisticsManager",
    "load_statistics",
    "save_statistics",
    # estimation feedback loop
    "FeedbackConfig",
    "FeedbackStore",
    "SessionFeedback",
    # experiments & observability
    "EstimatorConfig",
    "ExperimentRunner",
    "MetricsRegistry",
    "Tracer",
    # expression building
    "col",
    "lit",
    "__version__",
]
