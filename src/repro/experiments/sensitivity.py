"""Plan-sensitivity analysis: plan choices and regret across a sweep.

Inspired by plan diagrams: sweep a query template's parameter, record
which plan each estimator configuration picks at each point, and
measure *regret* — how much slower the chosen plan runs than the plan
an oracle (exact cardinalities) would have picked. Regret isolates the
cost of estimation error from the cost intrinsic to the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog import Database
from repro.cost import CostModel
from repro.experiments.runner import EstimatorConfig, ExperimentRunner, policy_arm
from repro.random_state import RngLike
from repro.workloads.templates import QueryTemplate


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter, estimator) cell of the sensitivity sweep."""

    param: int
    selectivity: float
    plan: str
    time: float
    oracle_plan: str
    oracle_time: float

    @property
    def regret(self) -> float:
        """Extra simulated seconds paid versus the oracle's plan."""
        return max(0.0, self.time - self.oracle_time)

    @property
    def chose_oracle_plan(self) -> bool:
        return self.plan == self.oracle_plan


@dataclass
class SensitivityReport:
    """All sweep points for one estimator configuration."""

    name: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def total_regret(self) -> float:
        return sum(point.regret for point in self.points)

    @property
    def mean_regret(self) -> float:
        return self.total_regret / len(self.points) if self.points else 0.0

    @property
    def agreement_rate(self) -> float:
        """Fraction of sweep points where the oracle's plan was chosen."""
        if not self.points:
            return 1.0
        return sum(p.chose_oracle_plan for p in self.points) / len(self.points)

    def switch_points(self) -> list[tuple[float, str, str]]:
        """Selectivities where the chosen plan changes along the sweep."""
        switches = []
        ordered = sorted(self.points, key=lambda p: p.selectivity)
        for previous, current in zip(ordered, ordered[1:]):
            if previous.plan != current.plan:
                switches.append(
                    (current.selectivity, previous.plan, current.plan)
                )
        return switches


def sensitivity_sweep(
    database: Database,
    template: QueryTemplate,
    configs: Sequence[EstimatorConfig],
    params: list[int],
    sample_size: int = 500,
    statistics_seed: RngLike = 0,
    cost_model: CostModel | None = None,
) -> dict[str, SensitivityReport]:
    """Run the sweep for each arm against the ``Exact`` oracle arm, as
    one :class:`~repro.experiments.ExperimentRunner` seed whose
    statistics sample ``sample_size`` tuples at ``statistics_seed``.

    Returns one :class:`SensitivityReport` per arm name.
    """
    oracle = policy_arm("exact")
    result = ExperimentRunner(
        database, template, cost_model, sample_size, seeds=[statistics_seed], workers=1
    ).run(
        [(param, template.true_selectivity(database, param)) for param in params],
        # The oracle runs first, so an arm that picks the oracle's plan
        # at a param reuses that execution outright.
        [oracle, *configs],
    )
    best = result.records_for(oracle.name)
    return {
        config.name: SensitivityReport(
            config.name,
            [
                SweepPoint(r.param, r.selectivity, r.plan, r.time, o.plan, o.time)
                for r, o in zip(result.records_for(config.name), best)
            ],
        )
        for config in configs
    }


def format_sensitivity(reports: dict[str, SensitivityReport]) -> str:
    """Summarize sweeps: regret and oracle-agreement per estimator."""
    lines = [
        f"{'estimator':<16} {'mean regret(s)':>14} {'agreement':>10} {'switches':>9}"
    ]
    for name, report in reports.items():
        lines.append(
            f"{name:<16} {report.mean_regret:>14.4f} "
            f"{report.agreement_rate:>10.0%} {len(report.switch_points()):>9d}"
        )
    return "\n".join(lines)
