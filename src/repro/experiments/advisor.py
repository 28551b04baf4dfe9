"""Threshold advisor: pick a confidence threshold for *your* workload.

Section 6.2.5 gives rules of thumb (80 % general-purpose, 95 % when
predictability is paramount) and closes with "as future work, we plan
to further refine and validate these conclusions through additional
experimentation". This module automates that experimentation: given a
database and a representative workload, it measures each candidate
threshold's (mean, std) latency profile and recommends the threshold
minimizing the scalarized objective

    score(T) = mean_time(T) + risk_aversion · std_time(T)

``risk_aversion = 0`` optimizes raw throughput; large values approach
"predictability is paramount". The λ-scalarization is the same
mean-variance utility family Chu et al. propose — here applied *once,
offline*, to pick the knob, after which the production optimizer runs
the paper's cheap single-inversion procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tradeoff import TradeoffPoint, tradeoff_from_times
from repro.catalog import Database
from repro.cost import CostModel
from repro.errors import ReproError
from repro.experiments.runner import ExperimentRunner, _QueryList, default_configs
from repro.optimizer import SPJQuery


@dataclass(frozen=True)
class ThresholdRecommendation:
    """The advisor's output."""

    threshold: float
    risk_aversion: float
    profile: TradeoffPoint
    #: Profiles of every candidate, for inspection.
    candidates: tuple[TradeoffPoint, ...]

    def __str__(self) -> str:
        return (
            f"T={self.threshold:.0%} (mean {self.profile.mean_time:.4f}s, "
            f"std {self.profile.std_time:.4f}s at λ={self.risk_aversion:g})"
        )


def recommend_threshold(
    database: Database,
    workload: Sequence[SPJQuery],
    risk_aversion: float = 1.0,
    candidate_thresholds: Sequence[float] = (0.05, 0.20, 0.50, 0.80, 0.95),
    sample_size: int = 500,
    seeds: Sequence[int] = (0, 1, 2),
    cost_model: CostModel | None = None,
) -> ThresholdRecommendation:
    """Measure each candidate threshold on ``workload`` and recommend one.

    ``workload`` is a list of representative queries (e.g. from
    production templates). Each candidate threshold is one arm of an
    :class:`~repro.experiments.ExperimentRunner` run that optimizes and
    runs the whole workload once per statistics seed; the
    recommendation minimizes ``mean + risk_aversion · std`` of the
    simulated latency. A threshold listed twice is measured once.
    """
    if not workload:
        raise ReproError("the advisor needs at least one workload query")
    if risk_aversion < 0:
        raise ReproError("risk_aversion must be non-negative")
    thresholds = list(dict.fromkeys(candidate_thresholds))
    if not thresholds:
        raise ReproError("the advisor needs at least one candidate threshold")
    configs = default_configs(thresholds, include_histogram=False)

    template = _QueryList(workload)
    result = ExperimentRunner(
        database, template, cost_model, sample_size, seeds=seeds, workers=1
    ).run(template.calibrate(database), configs)
    profiles = {
        threshold: tradeoff_from_times(
            config.name, [record.time for record in result.records_for(config.name)]
        )
        for threshold, config in zip(thresholds, configs)
    }
    best = min(
        thresholds,
        key=lambda t: profiles[t].mean_time + risk_aversion * profiles[t].std_time,
    )
    return ThresholdRecommendation(
        threshold=best,
        risk_aversion=risk_aversion,
        profile=profiles[best],
        candidates=tuple(profiles.values()),
    )
