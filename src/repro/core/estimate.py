"""The result types returned by cardinality estimators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.posterior import SelectivityPosterior


@dataclass(frozen=True)
class CardinalityEstimate:
    """A single cardinality estimate for one relational expression.

    Attributes
    ----------
    tables:
        The relations of the SPJ expression, as a frozenset of names.
    selectivity:
        Estimated fraction of the root relation's rows that survive
        all predicates (and, implicitly, the foreign-key joins).
    cardinality:
        Estimated output rows: ``selectivity × |root relation|``.
    root_table:
        The root of the FK join (whose cardinality anchors the result).
    source:
        Which statistic produced the estimate: ``"synopsis"``,
        ``"sample-avi"``, ``"histogram"``, ``"magic"``, ``"exact"``, or
        ``"mixed"`` (partial fallback).
    posterior:
        The full selectivity distribution, when the estimate came from
        a sample (``None`` for point-only estimators). Exposing the
        distribution is what lets callers reason about uncertainty.
    threshold:
        The confidence threshold used to collapse the posterior, when
        applicable.
    """

    tables: frozenset[str]
    selectivity: float
    cardinality: float
    root_table: str
    source: str
    posterior: SelectivityPosterior | None = None
    threshold: float | None = None

    def __str__(self) -> str:
        t = f" @T={self.threshold:.0%}" if self.threshold is not None else ""
        return (
            f"{'⋈'.join(sorted(self.tables))}: "
            f"{self.cardinality:.1f} rows "
            f"(sel={self.selectivity:.4%}, {self.source}{t})"
        )


@dataclass(frozen=True)
class VectorCardinalityEstimate(CardinalityEstimate):
    """One estimate per confidence threshold, sharing the evidence.

    ``selectivity`` and ``cardinality`` are numpy vectors over the
    threshold axis (the sample counts ``(k, n)`` behind them are
    threshold-independent, so they are computed once); ``threshold``
    holds the grid. The value also reads as the sequence of its lanes
    (``len``, indexing, iteration, :meth:`at`): lane ``i`` is exactly
    what the scalar estimator would have returned at ``threshold[i]``,
    built on first read and kept — a planner reads the lanes it
    finalizes at, not the whole grid.
    """

    #: Lane ``i``'s scalar estimate once read, ``None`` until then.
    _lanes: list = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._lanes is None:
            object.__setattr__(self, "_lanes", [None] * len(self.threshold))

    @classmethod
    def from_estimates(
        cls, estimates: "Sequence[CardinalityEstimate]"
    ) -> "VectorCardinalityEstimate":
        """Bundle per-threshold scalar estimates into one vector view
        (a value that already is one passes through)."""
        if isinstance(estimates, cls):
            return estimates
        first = estimates[0]
        return cls(
            tables=first.tables,
            selectivity=np.asarray([e.selectivity for e in estimates]),
            cardinality=np.asarray([e.cardinality for e in estimates]),
            root_table=first.root_table,
            source=first.source,
            posterior=first.posterior,
            threshold=tuple(e.threshold for e in estimates),
            _lanes=list(estimates),
        )

    def at(self, index: int) -> CardinalityEstimate:
        """The scalar estimate at threshold position ``index``."""
        lane = self._lanes[index]
        if lane is None:
            # Two threads may both build a lane; the values are equal.
            lane = self._lanes[index] = CardinalityEstimate(
                tables=self.tables,
                selectivity=float(self.selectivity[index]),
                cardinality=float(self.cardinality[index]),
                root_table=self.root_table,
                source=self.source,
                posterior=self.posterior,
                threshold=self.threshold[index],
            )
        return lane

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.at, range(*index.indices(len(self)))))
        return self.at(index)

    def __len__(self) -> int:
        return len(self._lanes)

    def __iter__(self) -> Iterator[CardinalityEstimate]:
        return map(self.at, range(len(self._lanes)))

    def __str__(self) -> str:
        return (
            f"{'⋈'.join(sorted(self.tables))}: "
            f"{len(self)} thresholds, {self.source}"
        )
