"""Adaptive threshold routing: q-error severity → confidence T.

The paper leaves T a workload-wide constant. The observatory routes
it per query class instead: a class whose estimates have proven
accurate can afford the aggressive (cheap-plan) end of the dial,
while a class with catastrophic observed q-error gets the
conservative end — the paper's own robustness argument, applied with
evidence instead of a guess. Bands come from the accuracy ledger
(:data:`repro.obs.ledger.SEVERITY_BANDS`); the mapping is the
querytorque decision matrix reduced to its planning consequence.
"""

from __future__ import annotations

from repro.core.confidence import AGGRESSIVE, CONSERVATIVE, MODERATE
from repro.obs.ledger import AccuracyLedger, SEVERITY_ORDER
from repro.selection import SelectionPolicy, resolve_policy

#: Severity band → confidence threshold. Accurate classes plan at the
#: aggressive (near-median) end; anything at major severity or worse
#: pays for headroom. Values may be bare thresholds or any
#: :func:`~repro.selection.resolve_policy` spelling (e.g. route
#: catastrophic classes to ``"cvar:0.9"``).
DEFAULT_BAND_THRESHOLDS = {
    "accurate": AGGRESSIVE,
    "moderate": MODERATE,
    "major": CONSERVATIVE,
    "catastrophic": CONSERVATIVE,
}


class ThresholdRouter:
    """Maps a query class to a selection policy via its ledger.

    ``route`` returns ``None`` until the ledger has evidence for the
    class, so the session's normal default policy applies to cold
    classes; explicit per-call policies and query hints
    always win over the router (precedence is enforced by the
    session). Band values are normalized through
    :func:`~repro.selection.resolve_policy`, so a bare float routes as
    the equivalent :class:`~repro.selection.ThresholdPolicy`.
    """

    def __init__(
        self,
        ledger: AccuracyLedger,
        band_thresholds: dict | None = None,
    ) -> None:
        bands = dict(
            DEFAULT_BAND_THRESHOLDS
            if band_thresholds is None
            else band_thresholds
        )
        missing = set(SEVERITY_ORDER) - set(bands)
        if missing:
            raise ValueError(
                f"band_thresholds missing severity bands: {sorted(missing)}"
            )
        self.ledger = ledger
        #: Band → :class:`~repro.selection.SelectionPolicy` actually
        #: emitted by :meth:`route`.
        self.band_policies = {
            band: resolve_policy(value) for band, value in bands.items()
        }
        #: Routing decisions taken, keyed by band.
        self.routed_counts: dict[str, int] = {}

    def route(self, query_class: str) -> SelectionPolicy | None:
        """The policy for ``query_class``, or ``None`` if cold."""
        severity = self.ledger.severity(query_class)
        if severity is None:
            return None
        self.routed_counts[severity] = (
            self.routed_counts.get(severity, 0) + 1
        )
        return self.band_policies[severity]

    def routing_table(self) -> dict:
        """Current class → (severity, policy spec) view for reports."""
        table = {}
        for query_class in self.ledger.classes():
            severity = self.ledger.severity(query_class)
            if severity is None:
                continue
            table[query_class] = {
                "severity": severity,
                "policy": self.band_policies[severity].spec(),
            }
        return table
