"""Heterogeneous workload runs and latency percentiles.

The paper's motivation (Section 2.1) is an application issuing many
queries over time: "users develop expectations about application
responsiveness ... a query that occasionally takes significantly
longer than usual can lead to the perception of performance problems,
even if the execution time is low on average." The natural metric is
the *latency distribution* — p50/p95/p99 — across a realistic mixture
of queries, which is what this harness measures per estimator
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.catalog import Database
from repro.cost import CostModel
from repro.errors import ReproError
from repro.experiments.runner import (
    EstimatorConfig,
    ExperimentRunner,
    _QueryList,
    default_configs,
)
from repro.random_state import RngLike, ensure_rng
from repro.workloads.templates import QueryTemplate


@dataclass(frozen=True)
class MixComponent:
    """One template in the mixture, with a sampling weight."""

    template: QueryTemplate
    weight: float = 1.0


@dataclass(frozen=True)
class LatencyProfile:
    """Summary of one configuration's simulated latency distribution."""

    name: str
    mean: float
    p50: float
    p95: float
    p99: float
    worst: float

    @classmethod
    def from_times(cls, name: str, times: Sequence[float]) -> "LatencyProfile":
        array = np.asarray(list(times), dtype=float)
        if array.size == 0:
            raise ReproError("cannot profile an empty latency sample")
        return cls(
            name=name,
            mean=float(array.mean()),
            p50=float(np.percentile(array, 50)),
            p95=float(np.percentile(array, 95)),
            p99=float(np.percentile(array, 99)),
            worst=float(array.max()),
        )


def run_workload_mix(
    database: Database,
    components: Sequence[MixComponent],
    num_queries: int = 100,
    configs: Sequence[EstimatorConfig] | None = None,
    sample_size: int = 500,
    statistics_seed: RngLike = 0,
    workload_seed: RngLike = 1,
    cost_model: CostModel | None = None,
) -> dict[str, LatencyProfile]:
    """Run a random query mixture under each configuration.

    The same query sequence (template choices and parameters) is used
    for every configuration, so profiles differ only through plan
    choices. The sequence runs as one
    :class:`~repro.experiments.ExperimentRunner` seed at
    ``statistics_seed``. Returns one :class:`LatencyProfile` per
    configuration.
    """
    if not components:
        raise ReproError("workload mix needs at least one component")
    configs = list(configs) if configs is not None else default_configs()
    rng = ensure_rng(workload_seed)

    weights = np.array([component.weight for component in components], float)
    if not (np.isfinite(weights).all() and (weights > 0).all()):
        raise ReproError("component weights must be finite and positive")
    weights /= weights.sum()

    # One shared query sequence.
    queries = []
    for _ in range(num_queries):
        component = components[int(rng.choice(len(components), p=weights))]
        low, high = component.template.param_range()
        param = int(rng.integers(low, high + 1))
        queries.append(component.template.instantiate(param))

    template = _QueryList(queries)
    result = ExperimentRunner(
        database, template, cost_model, sample_size, seeds=[statistics_seed], workers=1
    ).run(template.calibrate(database), configs)
    return {
        config.name: LatencyProfile.from_times(
            config.name, [record.time for record in result.records_for(config.name)]
        )
        for config in configs
    }


def format_latency_profiles(profiles: dict[str, LatencyProfile]) -> str:
    """Render profiles as an aligned text table."""
    header = f"{'config':<12} {'mean':>8} {'p50':>8} {'p95':>8} {'p99':>8} {'worst':>8}"
    lines = [header, "-" * len(header)]
    for profile in profiles.values():
        lines.append(
            f"{profile.name:<12} {profile.mean:>8.4f} {profile.p50:>8.4f} "
            f"{profile.p95:>8.4f} {profile.p99:>8.4f} {profile.worst:>8.4f}"
        )
    return "\n".join(lines)
