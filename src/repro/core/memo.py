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

A value is kept on its key's second sight, the rule the session's scan
cache, execution memo and shape store follow: the first sight computes
it and remembers only ``hash(key)``, the second computes again and
keeps it, later sights hit. On ``plan_cold`` (seed 7) 18 641 of 18 825
keys are looked up once. A hash collision only admits a value one
sight early: values are stored and found under their full key.
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
        #: ``(token, values, seen_once)``: the values kept under
        #: ``token`` and the hashes of keys seen once under it, swapped
        #: whole when the token moves.
        self._estimate_memo = (
            cache_token(self.statistics, self.feedback), {}, set()
        )
        self.estimate_cache_hits = 0
        self.estimate_cache_misses = 0

    def _memoized(self, key, compute, counted: bool = True):
        """``compute()``, served from the memo under ``key`` once the key
        has been seen twice under the current token; the memo is
        swapped for an empty one first when the token moved.
        ``counted=False`` keeps a lookup that is not a whole estimate
        out of the hit/miss counters.

        The value is kept in the state whose token was checked, so one
        computed while a harvest or a statistics refresh lands is kept
        only under the token it was computed behind, never the new
        one."""
        token = cache_token(self.statistics, self.feedback)
        memo = self._estimate_memo
        if memo[0] != token:
            memo = self._estimate_memo = (token, {}, set())
        _, values, seen_once = memo
        cached = values.get(key, _MISSING)
        if cached is not _MISSING:
            if counted:
                self.estimate_cache_hits += 1
            return cached
        value = compute()
        if counted:
            self.estimate_cache_misses += 1
        digest = hash(key)
        if digest in seen_once:
            seen_once.discard(digest)
            values[key] = value
        else:
            seen_once.add(digest)
        return value

    def estimate_memo_stats(self) -> dict:
        """``entries`` values kept and ``seen_once`` keys seen once under
        the memo's current token, and the ``hits`` / ``misses`` counters."""
        _, values, seen_once = self._estimate_memo
        return {
            "entries": len(values),
            "seen_once": len(seen_once),
            "hits": self.estimate_cache_hits,
            "misses": self.estimate_cache_misses,
        }

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
