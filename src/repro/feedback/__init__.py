"""The estimation observatory: execution feedback into the posterior.

The paper's estimator quantifies its own uncertainty but never learns
from being wrong: traces record ``(k, n, estimate, q-error)`` per span
and the evidence is discarded. This package closes that loop:

* :mod:`repro.feedback.store` — the persistent, epoch-namespaced
  :class:`FeedbackStore` of observed cardinalities keyed by
  ``(table set, expr_key)``, with the atomic save/load discipline of
  the statistics persistence layer;
* :mod:`repro.feedback.harvest` — turns executed plans (or archived
  trace records) into feedback observations whose keys exactly mirror
  the optimizer's ``card(tables, predicate)`` calls;
* :mod:`repro.feedback.provider` — lives in :mod:`.store`:
  :class:`FeedbackProvider` binds one store namespace to an estimator
  and folds observations into the Beta posterior as pseudo-counts;
* :mod:`repro.feedback.controller` — :class:`SessionFeedback`, the
  object a :class:`~repro.service.session.Session` owns: store +
  accuracy ledger + per-statistics-version providers.

The fold is the loop's only effect on plans. The selection policy
stays the caller's (hint, per-call, or session default); the ledger
reports q-error and drift but never picks a threshold.
"""

from repro.feedback.store import (
    FEEDBACK_FORMAT_VERSION,
    FeedbackError,
    FeedbackObservation,
    FeedbackProvider,
    FeedbackStore,
    feedback_key,
)
from repro.feedback.harvest import (
    harvest_plan,
    harvest_traces,
    plan_observations,
)
from repro.feedback.controller import FeedbackConfig, SessionFeedback

__all__ = [
    "FEEDBACK_FORMAT_VERSION",
    "FeedbackConfig",
    "FeedbackError",
    "FeedbackObservation",
    "FeedbackProvider",
    "FeedbackStore",
    "SessionFeedback",
    "feedback_key",
    "harvest_plan",
    "harvest_traces",
    "plan_observations",
]
