"""Whole-estimate memoization shared by the cardinality estimators.

Both the robust and the histogram estimators memoize finished
estimates keyed on the statistics manager's ``version`` counter, so
``update_statistics``/``drop_*`` invalidate the cache automatically.
The check/clear logic used to be duplicated in both classes; this
mixin is the single home for it so the two cannot drift.
"""

from __future__ import annotations


class EstimateCacheMixin:
    """Version-checked estimate memoization.

    Hosts expect ``self.statistics`` to be set before
    :meth:`_init_estimate_cache` is called, and route lookups through
    :meth:`_memoized` (which maintains the hit/miss counters the
    experiment harness reports).
    """

    def _init_estimate_cache(self, memoize_estimates: bool) -> None:
        self.memoize_estimates = memoize_estimates
        self._estimate_cache: dict = {}
        self._estimate_cache_version = self._estimate_cache_token()
        self.estimate_cache_hits = 0
        self.estimate_cache_misses = 0

    def _estimate_cache_token(self):
        """The invalidation token the cache is keyed behind.

        The statistics version by default; hosts with additional
        freshness dimensions (the robust estimator's feedback
        generation) override this to extend the token.
        """
        return getattr(self.statistics, "version", 0)

    def _memoized(self, key, compute):
        """``compute()``, served from the cache under ``key`` when
        memoization is on, dropping stale generations first. Hits and
        misses are counted only when memoizing."""
        if not self.memoize_estimates:
            return compute()
        token = self._estimate_cache_token()
        if token != self._estimate_cache_version:
            self._estimate_cache.clear()
            self._estimate_cache_version = token
        cached = self._estimate_cache.get(key)
        if cached is not None:
            self.estimate_cache_hits += 1
            return cached
        value = compute()
        self.estimate_cache_misses += 1
        self._estimate_cache[key] = value
        return value
