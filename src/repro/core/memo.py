"""The estimators' one cache-versioning rule.

Everything an estimator derives from statistics (finished estimates,
CDF-sketch pair fractions) sits in one memo behind
:func:`cache_token`, ``(statistics version, feedback generation or
None)``, which every ``update_statistics``/``drop_*`` and feedback
harvest moves, dropping the memo. The session's plan-cache key reads
the same token. No other module of ``repro.core`` reads either counter
(``tests/test_core_memo.py``). Values derived from data alone, such as
the robust estimator's synopsis masks, are keyed on the identity of the
immutable object they read instead.
"""

from __future__ import annotations

from repro.core.sketch import sample_pair_fraction

#: Marks a memo miss, so that ``None`` can be a memoized value.
_MISSING = object()


def cache_token(statistics, feedback) -> tuple:
    """``(statistics version, feedback generation or None)``: what the
    estimate memo and the session plan cache are keyed behind."""
    return (
        statistics.version,
        None if feedback is None else feedback.generation,
    )


class EstimateCacheMixin:
    """Token-checked memoization of statistics-derived values, always on.

    Hosts set ``self.statistics``, ``self.magic`` (the fallback of
    :meth:`condition_selectivity`) and, when feedback folds into their
    estimates, ``self.feedback`` before calling
    :meth:`_init_estimate_cache`, and route lookups through
    :meth:`_memoized`. The hit/miss counters the experiment harness
    reports count estimate lookups only.
    """

    #: Optional :class:`~repro.feedback.store.FeedbackProvider` whose
    #: generation extends the token.
    feedback = None

    def _init_estimate_cache(self) -> None:
        self._estimate_cache: dict = {}
        self._estimate_cache_token = cache_token(self.statistics, self.feedback)
        self.estimate_cache_hits = 0
        self.estimate_cache_misses = 0

    def _memoized(self, key, compute, counted: bool = True):
        """``compute()``, served from the memo under ``key``, dropping
        the memo first when the token moved. ``counted=False`` keeps a
        lookup that is not a whole estimate out of the hit/miss
        counters."""
        token = cache_token(self.statistics, self.feedback)
        if token != self._estimate_cache_token:
            self._estimate_cache.clear()
            self._estimate_cache_token = token
        cached = self._estimate_cache.get(key, _MISSING)
        if cached is not _MISSING:
            if counted:
                self.estimate_cache_hits += 1
            return cached
        value = compute()
        if counted:
            self.estimate_cache_misses += 1
        self._estimate_cache[key] = value
        return value

    def condition_selectivity(self, condition) -> float:
        """The CDF-sketch selectivity of a join condition over the two
        per-table samples (Repas et al.), memoized per condition; the
        classical magic number when a sample or column is missing.
        Always a scalar: the sketch is a point statistic, so confidence
        thresholds act only on the within-component predicates."""
        fraction = self._memoized(
            (
                "pair fraction",
                condition.left_table,
                condition.left_column,
                condition.op,
                condition.right_table,
                condition.right_column,
            ),
            lambda: sample_pair_fraction(self.statistics, condition),
            counted=False,
        )
        if fraction is not None:
            return fraction
        return self.magic.for_predicate(condition.expr)
