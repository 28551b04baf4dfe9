"""The session-facing feedback controller.

:class:`SessionFeedback` bundles the three moving parts of the
observatory — store, accuracy ledger, and the per-statistics-version
:class:`FeedbackProvider` bindings — behind the narrow interface the
:class:`~repro.service.session.Session` drives:

* ``provider_for(version)`` when (re)building its robust estimator,
  so folds are fenced to the live statistics epoch;
* ``observe(...)`` after each execution, harvesting the plan's
  observed cardinalities into the epoch's namespace and feeding the
  plan-level q-error to the ledger (which may raise an
  ``estimation-drift`` degradation event through ``on_degradation``).

The fold is the loop's only effect on plans: observations narrow the
Beta posterior, and the session's one threshold still turns that
posterior into an estimate (§3.1). The ledger only reports.

Namespacing is the stale-feedback fence: observations harvested under
statistics version ``v`` land in namespace ``epoch=v`` and only the
provider bound to ``epoch=v`` can fold them. A hot-swap moves the
session to a new version, so old feedback becomes structurally
unreachable — no invalidation pass required, and the refusal is
counted (``stale_refused``) rather than silent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.feedback.harvest import harvest_plan
from repro.feedback.store import FeedbackProvider, FeedbackStore
from repro.obs.ledger import AccuracyLedger
from repro.obs.trace import q_error


@dataclass
class FeedbackConfig:
    """Tuning knob for the feedback loop."""

    #: Pseudo-count mass folded per stored observation.
    weight: float = 64.0


class SessionFeedback:
    """Store + ledger + providers, bound to one session."""

    def __init__(
        self,
        store: FeedbackStore | None = None,
        config: FeedbackConfig | None = None,
        *,
        registry=None,
        on_degradation=None,
    ) -> None:
        self.config = config or FeedbackConfig()
        self.store = store if store is not None else FeedbackStore()
        self.ledger = AccuracyLedger(
            registry=registry, on_degradation=on_degradation
        )
        self._lock = threading.Lock()
        self._providers: dict[str, FeedbackProvider] = {}
        #: Executions observed (harvest passes).
        self.observations = 0

    # ------------------------------------------------------------------
    @staticmethod
    def namespace_for_version(version: int) -> str:
        return f"epoch={version}"

    @property
    def generation(self) -> int:
        """Mutation counter folded into plan-cache/memo keys."""
        return self.store.generation

    def provider_for(self, version: int) -> FeedbackProvider:
        """The (cached) provider fenced to one statistics version."""
        namespace = self.namespace_for_version(version)
        with self._lock:
            provider = self._providers.get(namespace)
            if provider is None:
                provider = FeedbackProvider(
                    self.store, namespace, weight=self.config.weight
                )
                self._providers[namespace] = provider
            return provider

    # ------------------------------------------------------------------
    def observe(
        self,
        query,
        plan,
        *,
        estimated_rows: float | None,
        actual_rows: int,
        statistics_version: int,
        operator_rows,
    ) -> None:
        """Harvest one executed plan and ledger its plan-level q-error
        under the query's class, its sorted table set.

        ``operator_rows`` is the ``{operator: output rows}`` mapping of
        the plan's execution (see :func:`harvest_plan`).
        """
        namespace = self.namespace_for_version(statistics_version)
        harvest_plan(self.store, namespace, query, plan, operator_rows)
        self.observations += 1
        error = q_error(estimated_rows, actual_rows)
        if error is not None:
            self.ledger.ingest(
                "+".join(sorted(query.tables)),
                error,
                statistics_version=statistics_version,
            )

    # ------------------------------------------------------------------
    def provider_counters(self) -> dict:
        with self._lock:
            return {
                namespace: provider.counters()
                for namespace, provider in sorted(self._providers.items())
            }

    def stale_hits(self) -> int:
        """Total folds served from a foreign namespace (must stay 0)."""
        return sum(
            c["stale_hits"] for c in self.provider_counters().values()
        )

    def report(self) -> dict:
        """JSON-ready snapshot of the whole loop's state."""
        return {
            "observations": self.observations,
            "store": self.store.report(),
            "ledger": self.ledger.report(),
            "providers": self.provider_counters(),
        }
