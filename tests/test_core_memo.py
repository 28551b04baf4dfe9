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
  refresh) hits + misses is the lookup count it was before pair
  fractions moved into the memo, and the split is what the
  second-sight rule makes of the logged lookups;
* admission — a value is kept on its key's second sight under one
  token, and a value computed while the token moved is never served
  under the new one.
"""

from __future__ import annotations

import collections
import pathlib
import sys
import threading
import tokenize

import pytest

from repro.core import (
    HistogramCardinalityEstimator,
    RobustCardinalityEstimator,
)
from repro.core.memo import EstimateCacheMixin, cache_token
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
#: after :func:`battery_estimators`, under second-sight admission:
#: each key looked up at least twice under one token misses twice.
COUNTS = {
    ("tpch", "robust"): (50, 218),
    ("tpch", "histogram"): (332, 188),
    ("star", "robust"): (56, 220),
    ("star", "histogram"): (388, 164),
    ("snowflake", "robust"): (68, 184),
    ("snowflake", "histogram"): (364, 140),
}

#: Estimate lookups (hits + misses) per family and arm: what the
#: counters summed to before pair fractions shared the memo, and under
#: first-sight admission.
LOOKUPS = {
    ("tpch", "robust"): 268,
    ("tpch", "histogram"): 520,
    ("star", "robust"): 276,
    ("star", "histogram"): 552,
    ("snowflake", "robust"): 252,
    ("snowflake", "histogram"): 504,
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


def battery_estimators(families) -> dict:
    """Plan every family's battery with each arm, refresh the
    statistics, and plan it again with the same estimators; the
    estimators, by ``(family, arm)``."""
    planned = {}
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
            planned[family, name] = estimator
    return planned


@pytest.fixture
def counted_lookups(monkeypatch) -> collections.Counter:
    """Counted lookups by ``(id(estimator), token, key)`` while live."""
    lookups: collections.Counter = collections.Counter()
    memoized = EstimateCacheMixin._memoized

    def logged(self, key, compute, counted=True):
        if counted:
            token = cache_token(self.statistics, self.feedback)
            lookups[id(self), token, key] += 1
        return memoized(self, key, compute, counted)

    monkeypatch.setattr(EstimateCacheMixin, "_memoized", logged)
    return lookups


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
        estimator.estimate(tables, predicate)
        first = estimator.estimate(tables, predicate)  # the sight that keeps
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
            3,
        )
        for synopsis, per_conjunct in estimator._mask_cache.items():
            assert all(
                per_conjunct[key] is mask
                for key, mask in masks[synopsis].items()
            )

    @pytest.mark.parametrize("harvest_in", [1, 2])
    def test_a_value_computed_across_a_harvest_is_not_served_after_it(
        self, tpch_stats, harvest_in
    ):
        """A harvest lands while a lookup computes, and another request's
        lookup moves the memo to the new token before the compute
        returns (run inside the compute, so the interleaving is fixed).
        The value computed before the harvest goes to its own caller
        only; every later lookup gets a value computed after it.
        ``harvest_in`` is the compute the harvest lands in: the first
        (the sight that kept a value under first-sight admission) or
        the second (the sight that keeps one now)."""
        estimator = RobustCardinalityEstimator(tpch_stats)
        store = FeedbackStore()
        estimator.feedback = FeedbackProvider(store, "epoch=0")
        computes = []

        def stamped():
            computed_at = store.generation
            computes.append(computed_at)
            if len(computes) == harvest_in:
                store.record(
                    "epoch=0", tables=["part"], predicate_key="p", observed_rows=1
                )
                estimator.estimate({"orders"}, None)
            return computed_at

        for _ in range(4):
            asked_at = store.generation
            assert estimator._memoized(("stamped",), stamped) == asked_at
        assert store.generation == 1  # the harvest landed

    def test_threads_across_harvests_are_never_served_a_stale_value(
        self, tpch_stats
    ):
        """Four lookup threads and a harvesting one on one estimator,
        switching as often as the interpreter allows: no lookup returns
        a value computed under an older generation than the one it read
        before asking."""
        estimator = RobustCardinalityEstimator(tpch_stats)
        store = FeedbackStore()
        estimator.feedback = FeedbackProvider(store, "epoch=0")
        stale = []
        finished = threading.Event()

        def stamped():
            computed_at = store.generation
            sum(range(100))  # the work a harvest can land in
            return computed_at

        def lookups(worker):
            for i in range(3000):
                asked_at = store.generation
                served = estimator._memoized(("stamped", i % 4), stamped)
                if served < asked_at:
                    stale.append((worker, i, asked_at, served))

        def harvests():
            while not finished.is_set():
                store.record(
                    "epoch=0", tables=["part"], predicate_key="p", observed_rows=1
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            harvester = threading.Thread(target=harvests)
            workers = [
                threading.Thread(target=lookups, args=(w,)) for w in range(4)
            ]
            harvester.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            finished.set()
            harvester.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (harvester, *workers))
        assert store.generation > 1
        assert stale == []


class TestSecondSightAdmission:
    """A value is kept on its key's second sight under one token: the
    first sight keeps only the key's hash, the third hits."""

    TABLES = {"lineitem", "orders"}
    PREDICATE = col("lineitem.l_quantity") > 20

    def test_the_first_lookup_keeps_no_value(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats)
        estimator.estimate(self.TABLES, self.PREDICATE)
        assert estimator._estimate_memo[1] == {}
        assert estimator.estimate_memo_stats() == {
            "entries": 0, "seen_once": 1, "hits": 0, "misses": 1,
        }

    def test_the_second_lookup_keeps_one(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats)
        first = estimator.estimate(self.TABLES, self.PREDICATE)
        second = estimator.estimate(self.TABLES, self.PREDICATE)
        assert second is not first and second.selectivity == first.selectivity
        assert list(estimator._estimate_memo[1].values()) == [second]
        assert estimator.estimate_memo_stats() == {
            "entries": 1, "seen_once": 0, "hits": 0, "misses": 2,
        }

    def test_the_third_lookup_returns_the_identical_object(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats)
        estimator.estimate(self.TABLES, self.PREDICATE)
        second = estimator.estimate(self.TABLES, self.PREDICATE)
        assert estimator.estimate(self.TABLES, self.PREDICATE) is second
        assert estimator.estimate_memo_stats() == {
            "entries": 1, "seen_once": 0, "hits": 1, "misses": 2,
        }

    def test_a_token_move_drops_values_and_seen_once_hashes(self, tpch_stats):
        estimator = RobustCardinalityEstimator(tpch_stats)
        store = FeedbackStore()
        estimator.feedback = FeedbackProvider(store, "epoch=0")
        estimator.estimate(self.TABLES, self.PREDICATE)
        kept = estimator.estimate(self.TABLES, self.PREDICATE)
        estimator.estimate({"orders"}, None)
        assert estimator.estimate_memo_stats()["entries"] == 1
        assert estimator.estimate_memo_stats()["seen_once"] == 1
        before = estimator._estimate_memo
        store.record(
            "epoch=0", tables=["part"], predicate_key="p", observed_rows=1
        )
        # The kept key is a first sight again, and so is the seen one.
        assert estimator.estimate(self.TABLES, self.PREDICATE) is not kept
        assert estimator._estimate_memo is not before
        assert estimator._estimate_memo[0] == cache_token(
            tpch_stats, estimator.feedback
        )
        assert estimator.estimate_memo_stats() == {
            "entries": 0, "seen_once": 1, "hits": 0, "misses": 4,
        }
        estimator.estimate({"orders"}, None)
        assert estimator.estimate_memo_stats()["entries"] == 0
        assert estimator.estimate_memo_stats()["seen_once"] == 2

    def test_a_session_of_never_repeated_statements_keeps_none_of_theirs(
        self, tpch_db, tpch_stats, counted_lookups
    ):
        """Fifty statements that differ in a constant: the keys each one
        alone asks for keep no value; the keys they share are kept."""
        with Session(tpch_db, statistics=tpch_stats) as session:
            for i in range(50):
                session.prepare(
                    "SELECT COUNT(*) FROM lineitem, orders "
                    "WHERE lineitem.l_orderkey = orders.o_orderkey "
                    f"AND orders.o_totalprice > {1000 * i + 7}"
                )
            estimator = session._state.estimator
            values = estimator._estimate_memo[1]
            lookups = {
                key: n for (owner, _, key), n in counted_lookups.items()
                if owner == id(estimator)
            }
            once = [key for key, n in lookups.items() if n == 1]
            assert len(once) >= 50
            assert not any(key in values for key in once)
            assert set(values) == {key for key, n in lookups.items() if n >= 2}
            stats = estimator.estimate_memo_stats()
            assert stats["entries"] == len(values) < 50
            assert stats["seen_once"] == len(once)


class TestCountsEstimatesOnly:
    def test_battery_counts_are_unchanged(self, families, counted_lookups):
        """The lookups are what they were; each key misses on its first
        and second sight under a token and hits after."""
        estimators = battery_estimators(families)
        counts = {
            planned: (estimator.estimate_cache_hits, estimator.estimate_cache_misses)
            for planned, estimator in estimators.items()
        }
        assert counts == COUNTS
        for planned, estimator in estimators.items():
            per_key = [
                n for (owner, _, _), n in counted_lookups.items()
                if owner == id(estimator)
            ]
            hits, misses = counts[planned]
            assert hits + misses == sum(per_key) == LOOKUPS[planned]
            assert misses == len(per_key) + sum(n >= 2 for n in per_key)

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
