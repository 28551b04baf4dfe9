"""One cache-versioning rule for the estimators (``core/memo.py``).

Every statistics-derived value an estimator keeps — a finished
estimate or a join condition's pair fraction — sits in the estimate
memo behind ``cache_token``, which the session's plan-cache key reads
too. Two kinds of check:

* structural — no module of ``repro.core`` other than ``memo.py`` reads
  a statistics version or a feedback generation, tokenized so that
  docstrings and comments do not count;
* counting — the memo's hit/miss counters count estimate lookups only:
  over a fixed battery (three families, two arms, one statistics
  refresh) they read what they read before pair fractions moved into
  the memo.
"""

from __future__ import annotations

import pathlib
import tokenize

import pytest

from repro.core import (
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.core.memo import cache_token
from repro.expressions import col
from repro.expressions.analysis import as_join_condition
from repro.feedback import FeedbackStore
from repro.feedback.store import FeedbackProvider
from repro.optimizer import Optimizer
from repro.service import Session
from repro.stats import StatisticsManager

from tests.conftest import battery_queries

CORE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "core"

ARMS = {
    "robust": RobustCardinalityEstimator,
    "histogram": HistogramCardinalityEstimator,
}

#: ``(estimate_cache_hits, estimate_cache_misses)`` per family and arm
#: after :func:`memo_counts`, as counted before the pair fractions
#: shared the memo.
COUNTS = {
    ("tpch", "robust"): (74, 194),
    ("tpch", "histogram"): (426, 94),
    ("star", "robust"): (112, 164),
    ("star", "histogram"): (470, 82),
    ("snowflake", "robust"): (112, 140),
    ("snowflake", "histogram"): (434, 70),
}


def counter_reads() -> list[str]:
    """``path:line`` of each ``.version`` / ``.generation`` read in
    ``repro.core`` outside ``memo.py``."""
    skipped = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT,
    }
    sites = []
    for path in sorted(CORE.rglob("*.py")):
        if path.name == "memo.py":
            continue
        with tokenize.open(path) as source:
            tokens = [
                token for token in tokenize.generate_tokens(source.readline)
                if token.type not in skipped
            ]
        for dot, name in zip(tokens, tokens[1:]):
            if (
                dot.string == "."
                and name.type == tokenize.NAME
                and name.string in ("version", "generation")
            ):
                sites.append(f"{path.name}:{name.start[0]}")
    return sites


def memo_counts(families) -> dict:
    """Plan every family's battery with each arm, refresh the
    statistics, and plan it again with the same estimators."""
    counts = {}
    for family, (database, _) in families.items():
        manager = StatisticsManager(database)
        manager.update_statistics(sample_size=300, seed=11)
        queries = battery_queries(family, database)
        estimators = {name: arm(manager) for name, arm in ARMS.items()}
        for seed in (11, 12):
            if seed != 11:
                manager.update_statistics(sample_size=300, seed=seed)
            for estimator in estimators.values():
                optimizer = Optimizer(database, estimator)
                for query in queries:
                    optimizer.optimize(query)
                    optimizer.optimize_many(query, (0.05, 0.5, 0.95))
        for name, estimator in estimators.items():
            counts[family, name] = (
                estimator.estimate_cache_hits,
                estimator.estimate_cache_misses,
            )
    return counts


class TestOneVersioningRule:
    def test_only_memo_reads_a_version_or_a_generation(self):
        assert counter_reads() == []

    def test_the_scan_finds_a_read(self, tmp_path, monkeypatch):
        (tmp_path / "leak.py").write_text(
            '"""statistics.version"""\n'
            "# feedback.generation\n"
            "token = self.statistics.version\n"
        )
        monkeypatch.setattr(
            "tests.test_core_memo.CORE", tmp_path, raising=True
        )
        assert counter_reads() == ["leak.py:3"]

    def test_session_keys_plans_on_the_memo_token(self, tpch_db, tpch_stats):
        with Session(tpch_db, statistics=tpch_stats) as session:
            prepared = session.prepare(
                "SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > 20"
            )
            assert prepared.request.token == cache_token(tpch_stats, None)
            feedback = session.enable_feedback()
            prepared.execute()
            assert session._request(prepared.query).token == cache_token(
                tpch_stats, feedback
            )

    def test_a_harvest_drops_the_memo_and_keeps_the_masks(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats)
        store = FeedbackStore()
        estimator.feedback = FeedbackProvider(store, "epoch=0")
        tables, predicate = {"lineitem", "orders"}, col("lineitem.l_quantity") > 20
        first = estimator.estimate(tables, predicate)
        masks = {
            synopsis: dict(per_conjunct)
            for synopsis, per_conjunct in estimator._mask_cache.items()
        }
        assert masks
        # An observation of another statement: the token moves, this
        # estimate does not.
        store.record(
            "epoch=0", tables=["part"], predicate_key="p", observed_rows=1
        )
        again = estimator.estimate(tables, predicate)
        assert again.selectivity == first.selectivity
        assert (estimator.estimate_cache_hits, estimator.estimate_cache_misses) == (
            0,
            2,
        )
        for synopsis, per_conjunct in estimator._mask_cache.items():
            assert all(
                per_conjunct[key] is mask
                for key, mask in masks[synopsis].items()
            )


class TestCountsEstimatesOnly:
    def test_battery_counts_are_unchanged(self, families):
        assert memo_counts(families) == COUNTS

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_side_lookups_count_nothing(self, snowflake_stats, arm):
        estimator = ARMS[arm](snowflake_stats)
        condition = as_join_condition(col("sales.s_price") < col("item.i_price"))
        estimator.condition_selectivity(condition)
        estimator.condition_selectivity(condition)
        assert (estimator.estimate_cache_hits, estimator.estimate_cache_misses) == (
            0,
            0,
        )
