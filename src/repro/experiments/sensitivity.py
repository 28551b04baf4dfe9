"""Plan-sensitivity analysis: plan choices and regret across a sweep.

Inspired by plan diagrams: sweep a query template's parameter, record
which plan each estimator configuration picks at each point, and
measure *regret* — how much slower the chosen plan runs than the plan
an oracle (exact cardinalities) would have picked. Regret isolates the
cost of estimation error from the cost intrinsic to the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog import Database
from repro.core import CardinalityEstimator, ExactCardinalityEstimator
from repro.cost import CostModel
from repro.experiments.perf import PlanExecutionCache
from repro.optimizer import Optimizer
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


def plan_shape(plan) -> str:
    """Compact signature of an operator tree."""
    return ">".join(type(op).__name__ for op in plan.walk())


def sensitivity_sweep(
    database: Database,
    template: QueryTemplate,
    estimators: dict[str, CardinalityEstimator],
    params: list[int],
    cost_model: CostModel | None = None,
) -> dict[str, SensitivityReport]:
    """Run the sweep for each named estimator against the oracle.

    Returns one :class:`SensitivityReport` per estimator name.
    """
    model = cost_model or CostModel()
    oracle = Optimizer(database, ExactCardinalityEstimator(database), model)
    # The oracle pass primes the cache: an estimator that picks the
    # oracle's plan at a sweep point reuses that execution outright.
    cache = PlanExecutionCache()

    # Oracle pass: the best achievable plan and time at each parameter.
    oracle_results: dict[int, tuple[str, float, float]] = {}
    for param in params:
        query = template.instantiate(param)
        planned = oracle.optimize(query)
        simulated = cache.execute(database, model, param, planned.plan)[0]
        oracle_results[param] = (
            plan_shape(planned.plan),
            simulated,
            template.true_selectivity(database, param),
        )

    reports: dict[str, SensitivityReport] = {}
    for name, estimator in estimators.items():
        optimizer = Optimizer(database, estimator, model)
        report = SensitivityReport(name)
        for param in params:
            query = template.instantiate(param)
            planned = optimizer.optimize(query)
            simulated = cache.execute(database, model, param, planned.plan)[0]
            oracle_plan, oracle_time, selectivity = oracle_results[param]
            report.points.append(
                SweepPoint(
                    param=param,
                    selectivity=selectivity,
                    plan=plan_shape(planned.plan),
                    time=simulated,
                    oracle_plan=oracle_plan,
                    oracle_time=oracle_time,
                )
            )
        reports[name] = report
    return reports


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
