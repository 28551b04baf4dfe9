"""Magic numbers and magic distributions (paper Section 3.5).

When no statistics exist for a predicate, classical systems fall back
to hard-coded "magic" selectivity constants (Selinger et al., 1979).
The paper proposes a refinement compatible with confidence thresholds:
a *magic distribution* — a soft prior whose percentile, rather than a
single constant, supplies the fallback estimate, so the conservative /
aggressive behaviour of the threshold survives even without data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.confidence import resolve_threshold
from repro.core.prior import Prior
from repro.expressions.expr import (
    Between,
    Comparison,
    Expr,
    InList,
    Not,
    Or,
    StringContains,
    StringStartsWith,
)


@dataclass(frozen=True)
class MagicNumbers:
    """The classical fallback selectivity constants."""

    equality: float = 0.1
    range: float = 0.25
    inequality: float = 1.0 / 3.0
    string_match: float = 0.1
    in_list: float = 0.15
    default: float = 1.0 / 9.0

    def for_predicate(self, predicate: Expr) -> float:
        """The magic selectivity for one predicate atom."""
        if isinstance(predicate, Comparison):
            if predicate.op == "=":
                return self.equality
            if predicate.op == "!=":
                return 1.0 - self.equality
            return self.inequality
        if isinstance(predicate, Between):
            return self.range
        if isinstance(predicate, InList):
            return self.in_list
        if isinstance(predicate, (StringContains, StringStartsWith)):
            return self.string_match
        if isinstance(predicate, Not):
            return 1.0 - self.for_predicate(predicate.operand)
        if isinstance(predicate, Or):
            miss = 1.0
            for operand in predicate.operands:
                miss *= 1.0 - self.for_predicate(operand)
            return 1.0 - miss
        return self.default


class MagicDistribution:
    """A magic *distribution*: a Beta prior replacing a magic number.

    The estimate returned for a statistics-free predicate becomes the
    ``T``-th percentile of this distribution, so raising the confidence
    threshold raises the assumed selectivity — the optimizer stays
    conservative even where it is flying blind.
    """

    def __init__(self, mean: float, concentration: float = 4.0) -> None:
        self._prior = Prior.informative(mean, concentration)
        self.mean = mean
        self.concentration = concentration

    def selectivity(self, threshold: float | str) -> float:
        """The fallback selectivity at confidence ``threshold``."""
        from scipy import special as scipy_special

        t = resolve_threshold(threshold)
        return float(
            scipy_special.betaincinv(self._prior.alpha, self._prior.beta, t)
        )

    def selectivity_many(self, thresholds) -> "np.ndarray":
        """Fallback selectivities for a whole threshold grid at once.

        Elementwise identical to :meth:`selectivity` per threshold
        (``betaincinv`` is a ufunc).
        """
        import numpy as np
        from scipy import special as scipy_special

        t = np.asarray([resolve_threshold(t) for t in thresholds], dtype=float)
        return scipy_special.betaincinv(self._prior.alpha, self._prior.beta, t)

    def __repr__(self) -> str:
        return (
            f"MagicDistribution(mean={self.mean:g}, "
            f"concentration={self.concentration:g})"
        )
