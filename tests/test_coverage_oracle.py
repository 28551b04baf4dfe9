"""The offline coverage oracle: §3.1's calibration claim, measured.

At confidence threshold ``T`` the paper's estimate is the ``T``-quantile
of a Beta posterior over the selectivity, so the true cardinality should
be at most the estimate about ``T`` of the time. A symmetric q-error
cannot see this; only the one-sided share can.

Cases are the workload templates' conjunctive predicates over the
tier-1 TPC-H, star and snowflake databases: ``hypothesis`` draws a
template and a parameter from its ``param_range``, and every case
builds fresh statistics under its own seed. Each case is priced on
every evidence rung of the robust estimator's ladder (§3.3 join
synopsis, §3.5 single-table sample, ``sample-avi``, ``mixed``,
``magic``) plus the threshold-blind ``histogram`` arm,
and counted as covered at ``T`` when the exact cardinality is at most
the estimate.

Only the synopsis and single-table rungs are gated, where §3.3's
posterior is the model: the ``n`` tuples are drawn with replacement, so
the count is binomial. The gate reads the cases where that binomial is
not degenerate, ``n·p ≥ 5`` and ``n·(1 − p) ≥ 5``: at ``p = 0`` every
``T`` covers, and below five expected hits the count's lattice moves
coverage by more than the band. There the covered share must lie in the
two-sided 99.9 % binomial band around ``T``. Every other row is
reported, not gated; DESIGN.md §20 holds the table (:func:`format_table`
prints it).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from repro.core import (
    ExactCardinalityEstimator,
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.experiments.runner import PAPER_THRESHOLDS
from repro.expressions import expr_key, predicates_by_table
from repro.stats import StatisticsManager
from repro.workloads import (
    PartCorrelationTemplate,
    PriceMarkupTemplate,
    ShippingDatesTemplate,
    SnowflakeChainTemplate,
    StarJoinTemplate,
)

SAMPLE_SIZE = 500
EXAMPLES = 600
BAND = 0.999
GATED = ("synopsis", "single-table sample")
REPORTED = ("sample-avi", "mixed", "magic", "histogram")

#: (database, template). The band-join template is left out: its tables
#: share no FK edge, so no rung (and no exact estimator) prices it.
TEMPLATES = (
    ("tpch", ShippingDatesTemplate()),
    ("tpch", PartCorrelationTemplate()),
    ("star", StarJoinTemplate()),
    ("snowflake", SnowflakeChainTemplate()),
    ("snowflake", PriceMarkupTemplate()),
)

_cases = st.sampled_from(TEMPLATES).flatmap(
    lambda entry: st.tuples(
        st.just(entry), st.integers(*entry[1].param_range())
    )
)


def in_model(n: int, true_rows: float, rows: int) -> bool:
    """Whether ``n`` draws from ``rows`` tuples, ``true_rows`` of them
    satisfying, give a non-degenerate binomial count."""
    p = true_rows / rows
    return n * p >= 5 and n * (1 - p) >= 5


def band(cases: int, threshold: float) -> tuple[float, float]:
    """The two-sided :data:`BAND` binomial band of a covered share."""
    tail = (1 - BAND) / 2
    return (
        binom.ppf(tail, cases, threshold) / cases,
        binom.ppf(1 - tail, cases, threshold) / cases,
    )


class _Oracle:
    """Prices one case on every rung and keeps the outcomes."""

    def __init__(self, databases: dict) -> None:
        self.databases = databases
        self.rows: dict[str, list[tuple[bool, tuple[bool, ...]]]] = {}
        self._truth: dict = {}
        self._seeds = itertools.count()

    def true_rows(self, database, tables, predicate) -> float:
        key = (id(database), tables, expr_key(predicate))
        if key not in self._truth:
            self._truth[key] = ExactCardinalityEstimator(database).estimate(
                tables, predicate
            ).cardinality
        return self._truth[key]

    def record(self, rung, database, tables, predicate, estimate, n=None):
        truth = self.true_rows(database, tables, predicate)
        cardinality = np.atleast_1d(estimate.cardinality)
        if len(cardinality) > 1:
            assert np.all(np.diff(cardinality) >= 0), "not monotone in T"
        total = database.table(estimate.root_table).num_rows
        gated = n is not None and in_model(n, truth, total)
        covered = tuple(bool(truth <= c) for c in cardinality)
        self.rows.setdefault(rung, []).append((gated, covered))

    def robust(self, rung, database, statistics, tables, predicate, n=None):
        estimate = RobustCardinalityEstimator(statistics).estimate_many(
            tables, predicate, PAPER_THRESHOLDS
        )
        self.record(rung or estimate.source, database, tables, predicate,
                    estimate, n)
        return estimate.source

    def case(self, family: str, template, param: int) -> None:
        database = self.databases[family]
        query = template.instantiate(param)
        tables, predicate = frozenset(query.tables), query.predicate
        statistics = StatisticsManager(database)
        statistics.update_statistics(
            sample_size=SAMPLE_SIZE, seed=next(self._seeds)
        )
        self.robust("synopsis", database, statistics, tables, predicate,
                    SAMPLE_SIZE)
        self.record("histogram", database, tables, predicate,
                    HistogramCardinalityEstimator(statistics).estimate(
                        tables, predicate))

        # The §3.5 ladder below the synopsis, built the way
        # tests/test_estimator_contract.py's shaped statistics are.
        for table in database.table_names:
            statistics.drop_synopsis(table)
        per_table = predicates_by_table(predicate)
        per_table.pop("", None)
        for table, table_predicate in sorted(per_table.items()):
            self.robust("single-table sample", database, statistics,
                        frozenset({table}), table_predicate, SAMPLE_SIZE)
        if len(tables) > 1:
            assert self.robust(None, database, statistics, tables,
                               predicate) in ("sample-avi", "mixed")
            statistics.drop_sample(min(per_table))
            assert self.robust(None, database, statistics, tables,
                               predicate) in ("mixed", "magic")
        assert self.robust(None, database, StatisticsManager(database),
                           tables, predicate) == "magic"


def coverage_rows(databases: dict, examples: int = EXAMPLES) -> dict:
    """``{rung: [(gated, covered per threshold), …]}`` over the cases."""
    oracle = _Oracle(databases)

    @settings(
        max_examples=examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(_cases)
    def run(case):
        (family, template), param = case
        oracle.case(family, template, param)

    run()
    return oracle.rows


def coverage(outcomes, gated_only: bool = False) -> tuple[int, np.ndarray]:
    covered = [c for gated, c in outcomes if gated or not gated_only]
    return len(covered), np.mean(np.array(covered, dtype=float), axis=0)


def format_table(rows: dict) -> str:
    """The DESIGN.md table: covered share per rung and threshold."""
    head = " | ".join(f"T = {t:.0%}" for t in PAPER_THRESHOLDS)
    lines = [
        f"| rung | cases | {head} |",
        "|---" * (2 + len(PAPER_THRESHOLDS)) + "|",
    ]
    for rung in GATED + REPORTED:
        for gated_only in ((True, False) if rung in GATED else (False,)):
            cases, shares = coverage(rows[rung], gated_only)
            if len(shares) == 1:  # threshold-blind: one share at every T
                shares = np.repeat(shares, len(PAPER_THRESHOLDS))
            cells = [f"{share:.3f}" for share in shares]
            label = rung
            if gated_only:
                label += " (gated, in model)"
                cells = [
                    f"**{cell}** [{low:.3f}, {high:.3f}]"
                    for cell, (low, high) in zip(
                        cells, (band(cases, t) for t in PAPER_THRESHOLDS)
                    )
                ]
            elif rung in GATED:
                label += " (all cases)"
            lines.append(f"| {label} | {cases} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def rows(tpch_db, star_db, snowflake_db):
    return coverage_rows(
        {"tpch": tpch_db, "star": star_db, "snowflake": snowflake_db}
    )


@pytest.mark.parametrize("rung", GATED)
def test_gated_rung_inside_band(rows, rung):
    cases, shares = coverage(rows[rung], gated_only=True)
    assert cases >= 100, f"only {cases} {rung} cases inside the model"
    for threshold, share in zip(PAPER_THRESHOLDS, shares):
        low, high = band(cases, threshold)
        assert low <= share <= high, (
            f"{rung} at T={threshold:.0%}: covered share {share:.3f} "
            f"outside [{low:.3f}, {high:.3f}] over {cases} cases\n"
            + format_table(rows)
        )


@pytest.mark.parametrize("rung", REPORTED)
def test_reported_rung_has_cases(rows, rung):
    cases, shares = coverage(rows[rung])
    assert cases > 0
    assert np.all((0 <= shares) & (shares <= 1))
