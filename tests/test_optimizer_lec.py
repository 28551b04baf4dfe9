"""Least expected cost is ``optimize_penalty``'s expected risk.

Mean regret is mean cost minus a constant (``penalty_matrix`` subtracts
each sample's minimum from every plan alike), so
``Optimizer.optimize_penalty(query, midpoints(q))`` with the default
``risk="expected"`` *is* least-expected-cost selection over ``q``
posterior quantiles — in one vectorized pass. The multi-invocation
recipe the paper criticizes (Section 2.2) lives on in
``tests/reference_lec.py`` as the comparand: the differential below
holds the two to the same winner over the whole statement battery.
"""

import numpy as np
import pytest

from repro.core import ExactCardinalityEstimator, RobustCardinalityEstimator
from repro.engine import ExecutionContext, NonEquiJoin
from repro.errors import OptimizationError
from repro.expressions import col
from repro.optimizer import Optimizer, SPJQuery
from repro.stats import StatisticsManager
from repro.workloads import PromotionBandTemplate

from tests.conftest import battery_queries, spread_params
from tests.reference_lec import midpoints, recost, reference_lec


CORRELATED = col("lineitem.l_shipdate").between("1997-07-01", "1997-09-30") & col(
    "lineitem.l_receiptdate"
).between("1997-07-01", "1997-09-30")


def lec(database, statistics, query, q):
    """Least expected cost over ``q`` midpoint quantiles, as spelled now."""
    optimizer = Optimizer(database, RobustCardinalityEstimator(statistics))
    return optimizer.optimize_penalty(query, midpoints(q))


@pytest.fixture(scope="module")
def sampled(families):
    """``sample -> family -> (database, statistics)``: each family at its
    default sample size and at 60 rows (wide posteriors)."""
    small = {}
    for family, (database, _) in families.items():
        statistics = StatisticsManager(database)
        statistics.update_statistics(sample_size=60, seed=1)
        small[family] = (database, statistics)
    return {"default": families, "60": small}


class TestBasics:
    def test_quantiles_are_midpoints(self):
        quantiles = midpoints(5)
        assert len(quantiles) == 5
        assert quantiles[0] == pytest.approx(0.1)
        assert quantiles[-1] == pytest.approx(0.9)

    def test_invalid_quantile_count(self, tpch_db, tpch_stats):
        with pytest.raises(OptimizationError):
            lec(tpch_db, tpch_stats, SPJQuery(["lineitem"], CORRELATED), 0)

    def test_produces_runnable_plan(self, tpch_db, tpch_stats):
        query = SPJQuery(["lineitem"], CORRELATED)
        planned = lec(tpch_db, tpch_stats, query, 5)
        frame = planned.plan.execute(ExecutionContext(tpch_db))
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            {"lineitem"}, CORRELATED
        )
        assert frame.num_rows == truth.cardinality

    def test_join_query(self, tpch_db, tpch_stats):
        query = SPJQuery(["lineitem", "part"], col("part.p_size") <= 10)
        planned = lec(tpch_db, tpch_stats, query, 5)
        frame = planned.plan.execute(ExecutionContext(tpch_db))
        truth = ExactCardinalityEstimator(tpch_db).estimate(
            set(query.tables), query.predicate
        )
        assert frame.num_rows == truth.cardinality

    def test_alternatives_ranked_by_expected_cost(self, tpch_db, tpch_stats):
        """Ranked by mean regret, read back as mean *cost* from the
        independent re-coster: the same order."""
        query = SPJQuery(["lineitem"], CORRELATED)
        planned = lec(tpch_db, tpch_stats, query, 5)
        assert len(planned.alternatives) >= 2
        expected = [
            recost(tpch_db, tpch_stats, c.operator, midpoints(5)).mean()
            for c in planned.alternatives
        ]
        for cheaper, dearer in zip(expected, expected[1:]):
            assert cheaper <= dearer * (1 + 1e-12)


class TestBlowup:
    def test_multi_invocation_blowup(self, tpch_db, tpch_stats):
        """The paper's criticism: estimation work scales with the
        number of subroutine invocations — of the black-box recipe, not
        of the vectorized pass that selects the same plan."""
        query = SPJQuery(["lineitem"], CORRELATED)
        single = Optimizer(
            tpch_db, RobustCardinalityEstimator(tpch_stats, policy=0.8)
        ).optimize(query)
        multi = reference_lec(tpch_db, tpch_stats, query, midpoints(7))
        assert multi.estimation_calls >= 7 * single.estimation_calls
        one_pass = lec(tpch_db, tpch_stats, query, 7)
        assert one_pass.estimation_calls == single.estimation_calls


class TestDecisionQuality:
    def test_lec_avoids_risky_plan_under_wide_posterior(self, tpch_db):
        """With a tiny sample the posterior is wide; the expected cost
        of the risky plan includes its disaster tail, so LEC plays
        safe — agreeing with high-threshold robust optimization."""
        stats = StatisticsManager(tpch_db)
        stats.update_statistics(sample_size=60, seed=1)
        planned = lec(tpch_db, stats, SPJQuery(["lineitem"], CORRELATED), 7)
        assert "SeqScan" in planned.plan.label()

    def test_lec_uses_risky_plan_when_safe(self, tpch_db, tpch_stats):
        """A clearly tiny selectivity makes the risky plan dominate at
        every quantile."""
        predicate = col("lineitem.l_shipdate").between(
            "1997-07-01", "1997-07-02"
        ) & col("lineitem.l_receiptdate").between("1997-07-01", "1997-07-09")
        planned = lec(tpch_db, tpch_stats, SPJQuery(["lineitem"], predicate), 5)
        assert "Index" in planned.plan.label()


class TestSameSelector:
    """The replacement against the recipe it replaced."""

    @pytest.mark.parametrize("q", [5, 9])
    @pytest.mark.parametrize("sample", ["default", "60"])
    @pytest.mark.parametrize("family", ["tpch", "star", "snowflake"])
    def test_winner_is_the_recipes_winner(self, sampled, family, sample, q):
        """Same plan — or, where two plans tie, the same expected cost
        by the reference re-coster to 1e-12 (the recipe takes the first
        met, the selector the smaller signature)."""
        database, statistics = sampled[sample][family]
        quantiles = midpoints(q)
        disagreements = []
        for number, query in enumerate(battery_queries(family, database)):
            ours = lec(database, statistics, query, q).alternatives[0].operator
            theirs = reference_lec(database, statistics, query, quantiles)
            if ours.signature() == theirs.winner:
                continue
            our_cost = recost(database, statistics, ours, quantiles).mean()
            their_cost = theirs.expected_cost(theirs.winner)
            if our_cost != pytest.approx(their_cost, rel=1e-12):
                disagreements.append((number, our_cost, their_cost))
        assert not disagreements

    def test_one_pass_pays_no_blowup(self, sampled):
        """Estimator calls over the snowflake battery: one pass asks
        what one threshold invocation asks; the recipe asks q times."""
        database, statistics = sampled["default"]["snowflake"]
        one_pass = recipe = 0
        for query in battery_queries("snowflake", database):
            one_pass += lec(database, statistics, query, 9).estimation_calls
            recipe += reference_lec(
                database, statistics, query, midpoints(9)
            ).estimation_calls
        assert recipe == 9 * one_pass


class TestBandJoins:
    """The statements the recipe in ``src/`` could not re-cost."""

    @pytest.mark.parametrize("q", [5, 9])
    @pytest.mark.parametrize("sample", ["default", "60"])
    def test_band_statements_plan_and_execute(self, sampled, sample, q):
        database, statistics = sampled[sample]["snowflake"]
        template = PromotionBandTemplate()
        for kind in spread_params(template):
            planned = lec(database, statistics, template.instantiate(kind), q)
            joined = planned.alternatives[0].operator
            assert any(isinstance(node, NonEquiJoin) for node in joined.walk())
            # (the exact estimator cannot span FK-unrelated tables; the
            # template counts band membership over the base columns)
            frame = joined.execute(ExecutionContext(database))
            assert frame.num_rows == template.true_rows(database, kind)
            assert np.isfinite(planned.selection["winner_score"])
