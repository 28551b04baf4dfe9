"""The chaos harness: sweep fault plans, check the invariants.

For each :class:`~repro.faults.plan.FaultPlan` the harness builds a
fresh :class:`~repro.service.Session`, attaches a (possibly corrupted)
copy of a pristine statistics archive, injects the plan's runtime
faults, and drives the workload twice — the second round probes the
plan cache. Every query must plan and execute; cached plans must be
indistinguishable from freshly planned ones under the *current*
statistics; statistics-free estimates must stay inside the §3.5
envelope; and every degradation must be attributed through
:meth:`Session.degradations` and the metrics registry.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.expressions import split_conjuncts
from repro.faults.injectors import FaultyEstimator, apply_archive_fault
from repro.faults.invariants import span_violations
from repro.faults.plan import FaultPlan
from repro.obs import DegradationEvent
from repro.selection import ThresholdPolicy
from repro.service import DEGRADED, Session
from repro.sql import parse_query
from repro.stats import StatisticsManager, save_statistics


@dataclass
class PlanOutcome:
    """What one fault plan did to one session."""

    plan: FaultPlan
    injected: tuple[str, ...]
    violations: tuple[str, ...]
    degradations: tuple[DegradationEvent, ...]
    queries_run: int

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosReport:
    """Aggregated sweep results."""

    outcomes: list[PlanOutcome]

    @property
    def passed(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def num_violations(self) -> int:
        return sum(len(outcome.violations) for outcome in self.outcomes)

    def format_summary(self, verbose: bool = False) -> str:
        lines = []
        degraded = sum(1 for o in self.outcomes if o.degradations)
        lines.append(
            f"chaos sweep: {len(self.outcomes)} fault plans, "
            f"{degraded} degraded gracefully, "
            f"{self.num_violations} invariant violations"
        )
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "FAIL"
            if verbose or not outcome.ok:
                lines.append(f"  [{status}] {outcome.plan.describe()}")
                for item in outcome.injected:
                    lines.append(f"      injected: {item}")
                for event in outcome.degradations:
                    lines.append(
                        f"      degraded: {event.reason} ({event.detail[:70]})"
                    )
                for violation in outcome.violations:
                    lines.append(f"      VIOLATION: {violation}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


class ChaosHarness:
    """Sweep seeded fault plans against session-level invariants.

    Parameters
    ----------
    database:
        The catalog and data under test (shared across plans; never
        mutated).
    queries:
        SQL statements the workload runs under every plan.
    sample_size / threshold / statistics_seed:
        Session and statistics-build configuration.
    workdir:
        Where archives are staged (a temporary directory by default).
    """

    def __init__(
        self,
        database,
        queries,
        *,
        sample_size: int = 150,
        threshold: float | str = 0.8,
        statistics_seed: int = 17,
        workdir=None,
    ) -> None:
        self.database = database
        self.queries = list(queries)
        if not self.queries:
            raise ReproError("chaos harness needs at least one query")
        self.sample_size = sample_size
        self.threshold = threshold
        self.statistics_seed = statistics_seed
        self._workdir = pathlib.Path(
            workdir or tempfile.mkdtemp(prefix="repro-chaos-")
        )
        self._parsed = [parse_query(sql, database) for sql in self.queries]
        self._conjuncts = [
            max(len(split_conjuncts(parsed.predicate)), 1)
            for parsed in self._parsed
        ]
        # One pristine archive, built once; every plan corrupts a copy.
        self._pristine = self._workdir / "pristine"
        manager = StatisticsManager(database)
        manager.update_statistics(
            sample_size=sample_size, seed=statistics_seed
        )
        save_statistics(manager, self._pristine)

    # ------------------------------------------------------------------
    def run(self, plans) -> ChaosReport:
        return ChaosReport([self.run_plan(plan) for plan in plans])

    def run_plan(self, plan: FaultPlan) -> PlanOutcome:
        rng = np.random.default_rng(plan.seed)
        injected: list[str] = []
        violations: list[str] = []

        archive = self._workdir / plan.name
        if archive.exists():
            shutil.rmtree(archive)
        shutil.copytree(self._pristine, archive)
        for spec in plan.archive_specs:
            injected.append(
                f"{spec.kind}: {apply_archive_fault(archive, spec, rng)}"
            )

        pressure = any(s.kind == "cache-pressure" for s in plan.runtime_specs)
        if pressure:
            injected.append("cache-pressure: plan cache capacity 2")
        session = Session(
            self.database,
            policy=ThresholdPolicy(self.threshold),
            sample_size=self.sample_size,
            statistics_seed=self.statistics_seed,
            plan_cache_size=2 if pressure else 64,
        )
        try:
            session.attach_statistics(str(archive))
            faulty = self._inject_runtime_faults(session, plan, rng, injected)
            queries_run = self._drive_workload(
                session, plan, violations, injected
            )
            self._check_envelope(session, violations)
            # A stale-statistics plan rebuilds fresh statistics
            # mid-workload, which legitimately restores health.
            recovered = any(
                s.kind == "stale-statistics" for s in plan.runtime_specs
            )
            self._check_attribution(
                session, plan, faulty, violations, recovered=recovered
            )
        finally:
            session.close()
            shutil.rmtree(archive, ignore_errors=True)
        return PlanOutcome(
            plan=plan,
            injected=tuple(injected),
            violations=tuple(violations),
            degradations=tuple(session.degradations()),
            queries_run=queries_run,
        )

    # ------------------------------------------------------------------
    def _inject_runtime_faults(
        self, session, plan, rng, injected
    ) -> FaultyEstimator | None:
        """Apply drops and wire the faulty-estimator decorator."""
        faulty_holder: list[FaultyEstimator] = []
        error_rate = 0.0
        delay = 0.0
        for spec in plan.runtime_specs:
            if spec.kind == "estimator-error":
                error_rate = spec.rate
            elif spec.kind == "estimator-delay":
                delay = spec.delay_seconds
        if error_rate or delay:
            fault_rng = np.random.default_rng(plan.seed + 1)

            def decorate(inner):
                wrapper = FaultyEstimator(
                    inner, fault_rng, error_rate=error_rate,
                    delay_seconds=delay,
                )
                faulty_holder.append(wrapper)
                return wrapper

            session.estimator_decorator = decorate
            injected.append(
                f"estimator faults: rate={error_rate:g} delay={delay:g}s"
            )

        drops = [s for s in plan.runtime_specs if s.kind.startswith("drop-")]
        if drops:
            statistics = session._ensure_state().manager
            tables = self.database.table_names
            for spec in drops:
                table = spec.table or tables[int(rng.integers(0, len(tables)))]
                if spec.kind == "drop-synopsis":
                    statistics.drop_synopsis(table)
                elif spec.kind == "drop-sample":
                    statistics.drop_sample(table)
                else:
                    statistics.drop_histograms(table)
                injected.append(f"{spec.kind}: {table}")
        return faulty_holder[0] if faulty_holder else None

    def _drive_workload(self, session, plan, violations, injected) -> int:
        """Two rounds over the workload; invariants 1 and 3."""
        stale = any(
            s.kind == "stale-statistics" for s in plan.runtime_specs
        )
        queries_run = 0
        for round_index in range(2):
            if stale and round_index == 1:
                session.refresh_statistics(seed=plan.seed % 10_000 + 1)
                injected.append("stale-statistics: refreshed between rounds")
            for sql in self.queries:
                queries_run += 1
                try:
                    prepared = session.prepare(sql)
                    result = prepared.execute()
                    assert result.num_rows >= 0
                except Exception as exc:  # any escape breaks invariant 1
                    violations.append(
                        f"executable-plan: {sql!r} raised "
                        f"{type(exc).__name__}: {exc}"
                    )
                    continue
                self._check_cache_versioning(
                    session, sql, prepared, violations
                )
        return queries_run

    def _check_cache_versioning(self, session, sql, prepared, violations):
        """Invariant 3: no plan served across a statistics change."""
        current = session.statistics_version()
        if prepared.statistics_version != current:
            violations.append(
                f"cache-versioning: {sql!r} handle pinned to statistics "
                f"v{prepared.statistics_version}, session is at v{current}"
            )
        if not prepared.from_cache:
            return
        # A cached plan must be indistinguishable from planning fresh
        # under the statistics in force right now.
        try:
            fresh = session._plan_pass(prepared.query, prepared.policy).planned
        except ReproError:
            return  # injected estimator fault during the probe: skip
        if fresh.estimated_cost != prepared.estimated_cost or (
            fresh.explain() != prepared.explain()
        ):
            violations.append(
                f"cache-versioning: cached plan for {sql!r} differs from "
                f"a fresh plan under statistics v{current}"
            )

    def _check_envelope(self, session, violations) -> None:
        """Invariant 2: fallback estimates stay inside the §3.5 band."""
        for sql, conjuncts in zip(self.queries, self._conjuncts):
            try:
                record = session.trace_query(sql)
            except ReproError as exc:
                violations.append(
                    f"fallback-envelope: tracing {sql!r} raised "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            violations.extend(span_violations(record, conjuncts))

    def _check_attribution(
        self, session, plan, faulty, violations, recovered: bool = False
    ) -> None:
        """Invariant 4: nothing degrades without a recorded reason."""
        events = session.degradations()
        reasons = {event.reason for event in events}
        expected = set()
        if plan.archive_specs:
            expected.add("statistics-load-failed")
        if faulty is not None and faulty.errors_fired:
            expected.add("estimator-failure")
        for reason in sorted(expected - reasons):
            violations.append(
                f"degradation-attributed: fault fired but no "
                f"{reason!r} event was recorded"
            )
        counter = session.metrics.counter(
            "repro_session_degradations_total",
            "Graceful degradations, by attributed reason.",
        )
        for reason in reasons:
            recorded = sum(
                1 for event in events if event.reason == reason
            )
            if counter.value(reason=reason) != recorded:
                violations.append(
                    "degradation-attributed: metrics counter for "
                    f"{reason!r} disagrees with the event log"
                )
        if events and not recovered and session.health != DEGRADED:
            violations.append(
                "degradation-attributed: events recorded but session "
                "health was reset without a clean recovery"
            )
