"""The Beta posterior over selectivity (paper Section 3.3).

Observing ``X`` — that ``k`` of ``n`` uniformly-with-replacement
sampled tuples satisfy the predicate — and applying Bayes's rule with a
``Beta(a, b)`` prior yields

    f(z | X) ∝ z^(k+a-1) · (1-z)^(n-k+b-1),

the Beta distribution with shape ``(k + a, n − k + b)``; with the
Jeffreys prior this is the paper's equation (2),
``Beta(k + 1/2, n − k + 1/2)``.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from repro.core.prior import JEFFREYS, Prior
from repro.errors import EstimationError


class SelectivityPosterior:
    """Posterior distribution of a predicate's true selectivity.

    cdf/ppf go straight to the regularized incomplete beta function
    (``scipy.special``) — constructing a frozen ``scipy.stats.beta``
    object costs ~1 ms each, which would dominate optimization time at
    the paper's hundreds of estimator calls per query (§6.1).
    """

    def __init__(self, k: int, n: int, prior: Prior = JEFFREYS) -> None:
        if n <= 0:
            raise EstimationError(f"sample size must be positive, got {n}")
        if not 0 <= k <= n:
            raise EstimationError(f"satisfying count k={k} outside [0, {n}]")
        self.k = int(k)
        self.n = int(n)
        self.prior = prior
        self.alpha = k + prior.alpha
        self.beta = n - k + prior.beta
        self._frozen = None

    @property
    def _dist(self):
        """The frozen scipy distribution, built lazily (pdf only)."""
        if self._frozen is None:
            self._frozen = scipy_stats.beta(self.alpha, self.beta)
        return self._frozen

    # ------------------------------------------------------------------
    # Distribution interface
    # ------------------------------------------------------------------
    def pdf(self, z):
        """Posterior density at selectivity ``z`` (vectorized)."""
        return self._dist.pdf(z)

    def cdf(self, z):
        """Posterior probability that selectivity ≤ ``z`` (vectorized)."""
        z_array = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
        result = scipy_special.betainc(self.alpha, self.beta, z_array)
        return float(result) if np.isscalar(z) else result

    def ppf(self, t):
        """Inverse cdf: the selectivity at percentile ``t`` (vectorized).

        This is the paper's estimate: with confidence threshold ``T%``,
        the returned selectivity ``s`` satisfies ``Pr[p ≤ s | X] = T%``.
        """
        scalar = isinstance(t, (int, float, np.integer, np.floating))
        if scalar:
            # A float is checked as a float: the array reduction below
            # costs about as much as the inversion it guards.
            t = float(t)
            outside = t <= 0 or t >= 1
        else:
            t = np.asarray(t, dtype=float)
            outside = np.any((t <= 0) | (t >= 1))
        if outside:
            raise EstimationError("confidence threshold must lie strictly in (0, 1)")
        result = scipy_special.betaincinv(self.alpha, self.beta, t)
        return float(result) if scalar or t.ndim == 0 else result

    def ppf_vector(self, thresholds: tuple[float, ...]) -> np.ndarray:
        """``ppf`` over a threshold grid via the shared quantile table.

        Bit-identical to calling :meth:`ppf` per threshold
        (``betaincinv`` is a ufunc evaluated elementwise either way),
        but amortized: a row of the ``(n + 1) × |thresholds|`` table is
        computed once per (sample size, prior, grid, ``k``) and every
        subsequent inversion is a row lookup on the observed ``k``.
        """
        return quantile_table(self.n, self.prior, thresholds).row(self.k)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Posterior mean, ``(k + a) / (n + a + b)``."""
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        """Posterior variance."""
        total = self.alpha + self.beta
        return (self.alpha * self.beta) / (total * total * (total + 1))

    @property
    def std(self) -> float:
        """Posterior standard deviation."""
        return float(np.sqrt(self.variance))

    @property
    def mle(self) -> float:
        """The classical maximum-likelihood estimate ``k / n``.

        This is what a conventional sampling estimator (e.g. the join
        synopses of Acharya et al.) would report.
        """
        return self.k / self.n

    def credible_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Central credible interval containing ``level`` posterior mass."""
        if not 0 < level < 1:
            raise EstimationError(f"level must be in (0, 1), got {level}")
        tail = (1.0 - level) / 2.0
        return (float(self.ppf(tail)), float(self.ppf(1.0 - tail)))

    def __repr__(self) -> str:
        return (
            f"SelectivityPosterior(k={self.k}, n={self.n}, "
            f"prior={self.prior.name}, Beta({self.alpha:g}, {self.beta:g}))"
        )


class BetaQuantileTable:
    """Memoized beta quantiles for every possible sample count.

    For a fixed sample size ``n``, prior ``(a, b)``, and threshold grid
    ``(t_0, …, t_{m-1})``, the satisfying count ``k`` is an *integer*
    in ``[0, n]`` — so every posterior the estimator can form over that
    sample is one of ``n + 1`` Beta distributions. The table holds

        ``Q[k, j] = betaincinv(k + a, n − k + b, t_j)``,

    turning each posterior inversion into an O(1) row lookup instead
    of a ``betaincinv`` call. ``betaincinv`` is a ufunc, so a row
    evaluated at once is bit-identical to scalar calls. Rows are
    computed on first use: a query touches a handful of the ``n + 1``
    counts, and a penalty policy's per-query grid never comes back.
    """

    __slots__ = ("n", "thresholds", "_prior", "_grid", "_rows")

    def __init__(
        self, n: int, prior: Prior, thresholds: tuple[float, ...]
    ) -> None:
        if n <= 0:
            raise EstimationError(f"sample size must be positive, got {n}")
        grid = np.asarray(thresholds, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise EstimationError("threshold grid must be a non-empty vector")
        if np.any((grid <= 0) | (grid >= 1)):
            raise EstimationError("confidence threshold must lie strictly in (0, 1)")
        self.n = int(n)
        self.thresholds = tuple(float(t) for t in grid)
        self._prior = prior
        self._grid = grid
        self._rows: dict[int, np.ndarray] = {}

    def row(self, k: int) -> np.ndarray:
        """Quantiles at every threshold for ``k`` satisfying tuples."""
        if not 0 <= k <= self.n:
            raise EstimationError(f"satisfying count k={k} outside [0, {self.n}]")
        k = int(k)
        row = self._rows.get(k)
        if row is None:
            # Two threads may both compute a row; the values are equal.
            row = scipy_special.betaincinv(
                float(k) + self._prior.alpha,
                self.n - float(k) + self._prior.beta,
                self._grid,
            )
            # Estimates hand this very array out as their selectivity.
            row.setflags(write=False)
            self._rows[k] = row
        return row


#: Process-wide table cache, least recently used first. Tables depend
#: only on (sample size, prior, threshold grid) — never on the data — so
#: they are shared across statistics rebuilds, seeds, and estimator
#: instances; a penalty policy's one-shot grids age out past the lane
#: grids every plan reuses.
_TABLE_CACHE: dict[tuple, BetaQuantileTable] = {}
_TABLE_CACHE_MAX = 64
_TABLE_CACHE_LOCK = threading.Lock()


def quantile_table(
    n: int, prior: Prior, thresholds: tuple[float, ...]
) -> BetaQuantileTable:
    """The memoized :class:`BetaQuantileTable` for one configuration."""
    key = (int(n), prior.alpha, prior.beta, tuple(thresholds))
    with _TABLE_CACHE_LOCK:
        table = _TABLE_CACHE.pop(key, None)
        if table is None:
            if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
                _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
            table = BetaQuantileTable(n, prior, thresholds)
        _TABLE_CACHE[key] = table  # (re)inserted last: most recently used
    return table
