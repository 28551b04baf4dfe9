"""Declarative, seeded fault plans.

A :class:`FaultPlan` says *what goes wrong*: a tuple of
:class:`FaultSpec` atoms, each naming one fault kind plus its
parameters. Plans carry their own seed, so a sweep is reproducible —
the same ``(seed, count)`` always generates the same plans, and every
random choice an injector makes derives from the plan's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError


class FaultPlanError(ReproError):
    """A fault plan or spec was configured inconsistently."""


#: Faults applied to a persisted statistics archive before attach.
ARCHIVE_FAULTS = (
    "archive-truncate-npz",
    "archive-manifest-mismatch",
    "archive-oob-row-ids",
    "archive-missing-npz",
    "archive-garbage-manifest",
)

#: Faults applied to a live session mid-workload.
RUNTIME_FAULTS = (
    "drop-synopsis",
    "drop-sample",
    "drop-histograms",
    "stale-statistics",
    "estimator-error",
    "estimator-delay",
    "cache-pressure",
)

FAULT_KINDS = ARCHIVE_FAULTS + RUNTIME_FAULTS


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    table:
        Target table for archive corruptions and statistic drops
        (``None`` lets the injector pick one deterministically).
    rate:
        Per-call firing probability for ``estimator-error``.
    delay_seconds:
        Stall per estimator call for ``estimator-delay``.
    """

    kind: str
    table: str | None = None
    rate: float = 1.0
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay_seconds < 0:
            raise FaultPlanError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    @property
    def is_archive_fault(self) -> bool:
        return self.kind in ARCHIVE_FAULTS

    def describe(self) -> str:
        parts = [self.kind]
        if self.table is not None:
            parts.append(f"table={self.table}")
        if self.kind == "estimator-error":
            parts.append(f"rate={self.rate:g}")
        if self.kind == "estimator-delay":
            parts.append(f"delay={self.delay_seconds:g}s")
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of faults to inject together."""

    name: str
    seed: int
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    @property
    def archive_specs(self) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.is_archive_fault)

    @property
    def runtime_specs(self) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if not s.is_archive_fault)

    def describe(self) -> str:
        body = " ".join(spec.describe() for spec in self.specs) or "(none)"
        return f"{self.name} [seed={self.seed}] {body}"


def generate_fault_plans(
    count: int,
    seed: int = 0,
    tables: tuple[str, ...] = (),
    max_faults: int = 3,
) -> list[FaultPlan]:
    """A deterministic sweep of ``count`` fault plans.

    Each plan draws one to ``max_faults`` distinct fault kinds (so one
    plan can, say, corrupt the archive *and* stall the estimator), with
    per-kind parameters derived from ``seed``. The same arguments
    always produce the same plans.
    """
    if count < 1:
        raise FaultPlanError(f"count must be >= 1, got {count}")
    if not 1 <= max_faults <= len(FAULT_KINDS):
        raise FaultPlanError(
            f"max_faults must be in [1, {len(FAULT_KINDS)}], got {max_faults}"
        )
    rng = np.random.default_rng(seed)
    plans = []
    for index in range(count):
        n_faults = int(rng.integers(1, max_faults + 1))
        kinds = [
            FAULT_KINDS[k]
            for k in rng.choice(len(FAULT_KINDS), size=n_faults, replace=False)
        ]
        specs = []
        for kind in sorted(kinds):  # stable spec order within a plan
            table = None
            if tables and (
                kind in ARCHIVE_FAULTS or kind.startswith("drop-")
            ):
                table = tables[int(rng.integers(0, len(tables)))]
            specs.append(
                FaultSpec(
                    kind=kind,
                    table=table,
                    rate=float(rng.uniform(0.05, 0.5))
                    if kind == "estimator-error"
                    else 1.0,
                    delay_seconds=0.001 if kind == "estimator-delay" else 0.0,
                )
            )
        plans.append(
            FaultPlan(
                name=f"plan-{index:03d}",
                seed=int(rng.integers(0, 2**31 - 1)),
                specs=tuple(specs),
            )
        )
    return plans
