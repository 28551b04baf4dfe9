"""Confidence-threshold policy (paper Sections 3.1 and 6.2.5).

The confidence threshold ``T`` is the single knob trading performance
against predictability. The paper envisions a system-wide robustness
setting — "conservative", "moderate", or "aggressive", i.e. 95 %, 80 %,
and 50 % — overridable per query by a *query hint* embedded in the
statement. :func:`resolve_threshold` normalizes either spelling; the
robust estimator holds the resolved default and resolves each hint.
"""

from __future__ import annotations

from repro.errors import EstimationError

#: T = 95 %: "very stable query plans and few surprises" (Section 6.2.5).
CONSERVATIVE = 0.95
#: T = 80 %: the recommended general-purpose baseline.
MODERATE = 0.80
#: T = 50 %: the unbiased (median) setting.
AGGRESSIVE = 0.50

_NAMED_LEVELS = {
    "conservative": CONSERVATIVE,
    "moderate": MODERATE,
    "aggressive": AGGRESSIVE,
}


def resolve_threshold(value: float | str) -> float:
    """Normalize a threshold given as a fraction, percentage, or name."""
    if isinstance(value, str):
        named = _NAMED_LEVELS.get(value.lower())
        if named is not None:
            return named
        try:
            value = float(value)  # numeric strings, e.g. from a CLI
        except ValueError:
            raise EstimationError(
                f"unknown robustness level {value!r}; "
                f"choose from {sorted(_NAMED_LEVELS)} or give a percentage"
            ) from None
    threshold = float(value)
    if threshold > 1.0:  # given as a percentage, e.g. 80 for 80 %
        threshold /= 100.0
    if not 0.0 < threshold < 1.0:
        raise EstimationError(
            f"confidence threshold must lie strictly in (0, 1), got {value}"
        )
    return threshold

