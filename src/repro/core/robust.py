"""The robust cardinality estimator — the paper's Section 3.4 procedure.

Given an SPJ expression:

1. find the precomputed join synopsis whose root matches the
   expression's root relation;
2. count the synopsis tuples satisfying the predicate (``k`` of ``n``)
   and form the Beta posterior ``Beta(k + a, n − k + b)``;
3. invert the posterior cdf at the confidence threshold ``T`` and
   return ``cdf⁻¹(T) × |root|`` as the cardinality.

When the needed synopsis is missing, the estimator degrades gracefully
(Section 3.5): single-table samples combined under the AVI and
containment assumptions, then magic distributions as the last resort.
Estimation error from fallback assumptions is confined to the
subexpressions that actually lack statistics.

The sample counts ``(k, n)`` are threshold-independent — only the
final ``cdf⁻¹(T)`` inversion changes with ``T`` — so the estimator
gathers its evidence in one pass (:meth:`_gather`) and leaves the
inversion to one of two finishers: ``estimate`` inverts at a single
threshold with ``betaincinv``; ``estimate_many`` prices a whole
threshold grid from the same evidence, reading the inversions out of
a precomputed :class:`~repro.core.posterior.BetaQuantileTable` row.
"""

from __future__ import annotations

import weakref
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.confidence import MODERATE, resolve_threshold
from repro.core.estimate import CardinalityEstimate, VectorCardinalityEstimate
from repro.core.estimator import CardinalityEstimator
from repro.core.magic import MagicDistribution, MagicNumbers
from repro.core.memo import EstimateCacheMixin
from repro.core.posterior import SelectivityPosterior
from repro.core.prior import JEFFREYS, Prior
from repro.errors import EstimationError, ReproError
from repro.obs.trace import EstimationSpan
from repro.expressions import (
    Expr,
    expr_key,
    predicates_by_table,
    split_conjuncts,
)
from repro.stats import StatisticsManager
from repro.stats.distinct import gee_estimator


class _Factor(NamedTuple):
    """One multiplicative term of an estimate, before inversion."""

    #: What the evidence span is attributed to.
    tables: Iterable[str]
    #: Span label: ``synopsis`` / ``feedback`` / ``sample`` / ``magic``.
    source: str
    predicate: Expr | None
    #: A Beta posterior, or (``magic``) one distribution per conjunct.
    model: "SelectivityPosterior | list[MagicDistribution]"
    #: The ``(k, n)`` the span reports.
    counts: tuple = (None, None)


class _Evidence(NamedTuple):
    """Everything about an estimate that does not depend on the threshold."""

    tables: frozenset
    root: str
    total: int
    #: Label of the finished estimate.
    source: str
    #: Multiplied in order; AVI across them.
    factors: list
    #: Set when one statistic priced the whole expression (a covering
    #: synopsis, or stored feedback): ``factors`` is that one posterior.
    posterior: SelectivityPosterior | None = None
    #: Feedback provenance, when observations folded into the prior.
    attribution: dict | None = None


class RobustCardinalityEstimator(EstimateCacheMixin, CardinalityEstimator):
    """Sample-based Bayesian estimation with a confidence threshold.

    Parameters
    ----------
    statistics:
        The statistics manager holding samples and join synopses.
    prior:
        Beta prior over selectivity; the Jeffreys prior by default.
    policy:
        System-wide confidence threshold as a fraction, percentage or
        name (see :func:`~repro.core.confidence.resolve_threshold`),
        overridable per call via the ``hint`` argument of
        :meth:`estimate`. Stored resolved, as :attr:`threshold`.
    magic:
        Fallback magic-number table for statistics-free predicates.
    magic_concentration:
        Pseudo-count of the magic *distributions* built from the magic
        numbers (higher = the fallback reacts less to the threshold).
    """

    def __init__(
        self,
        statistics: StatisticsManager,
        prior: Prior = JEFFREYS,
        policy: float | str = MODERATE,
        magic: MagicNumbers | None = None,
        magic_concentration: float = 4.0,
    ) -> None:
        self.statistics = statistics
        self.prior = prior
        self.threshold = resolve_threshold(policy)
        self.magic = magic or MagicNumbers()
        self.magic_concentration = magic_concentration
        # §6.1 notes the prototype "lacks even basic optimizations such
        # as memoizing". This is that optimization: during one
        # optimizer run the same conjuncts recur across many subsets,
        # so per-synopsis boolean masks are cached per conjunct and
        # ANDed, instead of re-evaluating whole predicates. Keyed
        # weakly on the synopsis object (data, not statistics version)
        # so a harvest keeps them and a rebuild never serves stale ones.
        self._mask_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Whole-estimate memoization on top of the mask cache: the
        # System-R DP re-prices the same (tables, predicate, threshold)
        # triple across queries of a grid, and each hit skips a
        # ``betaincinv`` inversion. Keyed behind the memo token
        # (``core/memo.py``).
        self._init_estimate_cache()
        #: Posterior inversions served from a quantile-table row
        #: instead of per-threshold ``betaincinv`` calls.
        self.lut_hits = 0
        #: §3.5 fallback attribution: estimation passes that could not
        #: use a covering synopsis, counted by fallback source
        #: ("sample-avi" / "magic" / "mixed"). Memoized repeats of the
        #: same estimate are not re-counted — these are unique passes.
        self.fallback_counts: dict[str, int] = {}
        #: Optional hook called as ``listener(tables, source)`` on
        #: every fallback pass; the session wires this into its
        #: metrics registry so degradations are attributed live.
        self.fallback_listener = None
        #: Optional :class:`~repro.feedback.store.FeedbackProvider`.
        #: When set, stored observed cardinalities matching a lookup's
        #: ``(tables, expr_key)`` fold into the Beta posterior as
        #: extra pseudo-counts; such estimates carry
        #: ``source="feedback"`` and their spans record the
        #: unadjusted prior quantile beside the corrected one.
        self.feedback = None
        #: The last threshold grid ``estimate_many`` resolved, as
        #: ``(given, resolved)``: a planner sends one grid per plan.
        self._resolved_grid: tuple = ((), ())

    # ------------------------------------------------------------------
    def estimate(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        hint: float | str | None = None,
    ) -> CardinalityEstimate:
        names = frozenset(tables)
        if not names:
            raise EstimationError("estimate requires at least one table")
        threshold = self.threshold if hint is None else resolve_threshold(hint)
        return self._memoized(
            (names, expr_key(predicate), threshold),
            lambda: self._invert(self._gather(names, predicate), threshold),
        )

    def estimate_many(
        self,
        tables: Iterable[str],
        predicate: Expr | None,
        thresholds: Sequence[float],
    ) -> VectorCardinalityEstimate:
        """One estimate per threshold from a single evidence pass.

        The synopsis mask and the ``(k, n)`` counts are computed once;
        every posterior inversion is a quantile-table row lookup. The
        returned lanes match :meth:`estimate` at each threshold bit for
        bit (``betaincinv`` is evaluated elementwise in both paths).
        """
        names = frozenset(tables)
        if not names:
            raise EstimationError("estimate requires at least one table")
        if not thresholds:
            raise EstimationError("estimate_many requires at least one threshold")
        given = tuple(thresholds)
        resolved = self._resolved_grid
        if resolved[0] != given:
            resolved = self._resolved_grid = (
                given,
                tuple(resolve_threshold(t) for t in given),
            )
        grid = resolved[1]
        return self._memoized(
            (names, expr_key(predicate), grid),
            lambda: self._invert_many(self._gather(names, predicate), grid),
        )

    # ------------------------------------------------------------------
    # Evidence: the Section 3.3 lookup and the Section 3.5 fallbacks
    # ------------------------------------------------------------------
    def _gather(
        self, names: frozenset[str], predicate: Expr | None
    ) -> _Evidence:
        """The threshold-independent half of an estimate.

        With a covering synopsis, its ``(k, n)`` forms the posterior.
        Without one, per-table estimates are AVI-combined, magic
        distributions standing in where samples lack. For foreign-key
        joins under referential integrity, the containment assumption
        makes each join factor ``1 / |parent|``, so the combined
        cardinality is ``|root| × ∏ per-table selectivities`` — the
        error is confined to tables without samples and to the AVI
        combination itself.

        Stored feedback for exactly this ``(tables, expr_key)`` pair
        folds into the synopsis posterior's prior, and replaces the
        AVI combination outright: the observed joint cardinality is
        strictly better evidence than independence across marginals,
        so the posterior is built from the feedback pseudo-counts
        alone (``Beta(a + m·s, b + m·(1−s))``).
        """
        root = self.statistics.database.root_relation(names)
        total = self.statistics.table_rows(root)

        synopsis = self.statistics.synopsis_covering(names)
        counts = None
        if synopsis is not None:
            counts = (self._count_satisfying(synopsis, predicate), synopsis.size)
        fold = self._feedback_fold(names, predicate, total)
        if counts is not None or fold is not None:
            prior, attribution = (self.prior, None) if fold is None else fold
            # Without a synopsis, n=1/k=0 is the smallest posterior the
            # math accepts; the single pseudo-failure is negligible
            # against the feedback mass folded into the prior.
            k, n = counts or (0, 1)
            posterior = SelectivityPosterior(k, n, prior)
            source = "synopsis" if fold is None else "feedback"
            factor = _Factor(
                names, source, predicate, posterior, counts or (None, None)
            )
            return _Evidence(
                names, root, total, source, [factor], posterior, attribution
            )

        per_table = predicates_by_table(predicate)
        unrouted = per_table.pop("", None)
        factors = []
        for name in sorted(names):
            table_predicate = per_table.get(name)
            if table_predicate is None:
                continue
            sample = self.statistics.sample_for(name)
            if sample is not None:
                k = sample.count_satisfying(table_predicate)
                posterior = SelectivityPosterior(k, sample.size, self.prior)
                factors.append(
                    _Factor(
                        {name}, "sample", table_predicate, posterior,
                        (k, sample.size),
                    )
                )
            else:
                factors.append(self._magic_factor({name}, table_predicate))
        if unrouted is not None:
            # Cross-table or table-free conjuncts cannot be routed to a
            # single-table sample; charge them at magic selectivity.
            factors.append(self._magic_factor(names, unrouted))

        kinds = {factor.source for factor in factors}
        if kinds == {"magic", "sample"}:
            source = "mixed"
        else:
            source = "magic" if "magic" in kinds else "sample-avi"
        self._note_fallback(names, source)
        return _Evidence(names, root, total, source, factors)

    def _magic_factor(self, tables, predicate: Expr) -> _Factor:
        """Magic distributions for an un-sampled predicate's conjuncts."""
        return _Factor(
            tables,
            "magic",
            predicate,
            [
                MagicDistribution(
                    self.magic.for_predicate(conjunct), self.magic_concentration
                )
                for conjunct in split_conjuncts(predicate)
            ],
        )

    def _feedback_fold(
        self, names: frozenset[str], predicate: Expr | None, total
    ):
        """``(adjusted prior, attribution)`` for a lookup, or ``None``.

        Consults the bound :class:`FeedbackProvider` for stored
        observations of exactly this ``(tables, expr_key)`` pair and
        folds them into the prior as pseudo-counts — the posterior
        math downstream (scalar ``ppf`` and the vectorized quantile
        table alike) is unchanged.
        """
        if self.feedback is None:
            return None
        folded = self.feedback.pseudo_counts(
            names, expr_key(predicate), total
        )
        if folded is None:
            return None
        extra_alpha, extra_beta, attribution = folded
        return (
            self.feedback.adjusted_prior(
                self.prior, (extra_alpha, extra_beta)
            ),
            attribution,
        )

    def _note_fallback(self, names: frozenset[str], source: str) -> None:
        """Attribute one §3.5 fallback pass (counter + optional hook)."""
        self.fallback_counts[source] = self.fallback_counts.get(source, 0) + 1
        if self.fallback_listener is not None:
            self.fallback_listener(names, source)

    # ------------------------------------------------------------------
    # Inversion: the two finishers. Both multiply the factors in the
    # order gathered (the leading 1.0 is exact), so each lane of
    # ``_invert_many`` reproduces ``_invert`` at that threshold.
    # ------------------------------------------------------------------
    def _invert(self, evidence: _Evidence, threshold: float) -> CardinalityEstimate:
        """Collapse ``evidence`` at one threshold (one ``betaincinv``
        per posterior or magic distribution)."""
        tables, root, total, source, factors, posterior, attribution = evidence
        selectivity = 1.0
        for factor in factors:
            if factor.source == "magic":
                quantile = 1.0
                for distribution in factor.model:
                    quantile *= distribution.selectivity(threshold)
            else:
                quantile = factor.model.ppf(threshold)
            selectivity *= quantile
            if self.tracer is not None:
                feedback = None
                if attribution is not None:
                    base = float(self._unfolded(factor.model).ppf(threshold))
                    feedback = dict(
                        attribution,
                        prior_quantile=base,
                        prior_point_estimate=base * total,
                    )
                self._trace_lookup(
                    factor, threshold, quantile,
                    None if posterior is None else quantile * total,
                    False, feedback,
                )
        return CardinalityEstimate(
            tables=tables,
            selectivity=selectivity,
            cardinality=selectivity * total,
            root_table=root,
            source=source,
            posterior=posterior,
            threshold=threshold,
        )

    def _invert_many(
        self, evidence: _Evidence, grid: tuple[float, ...]
    ) -> VectorCardinalityEstimate:
        """Collapse ``evidence`` at every threshold of ``grid`` (one
        quantile-table row per posterior, ``selectivity_many`` per
        magic distribution)."""
        tables, root, total, source, factors, posterior, attribution = evidence
        selectivity = None  # stands for all-ones: the first factor is exact
        for factor in factors:
            if factor.source == "magic":
                quantiles = np.ones(len(grid))
                for distribution in factor.model:
                    quantiles = quantiles * distribution.selectivity_many(grid)
            else:
                quantiles = factor.model.ppf_vector(grid)
                self.lut_hits += 1
            selectivity = (
                quantiles if selectivity is None else selectivity * quantiles
            )
            if self.tracer is not None:
                feedback = None
                if attribution is not None:
                    base = self._unfolded(factor.model).ppf_vector(grid)
                    feedback = dict(
                        attribution,
                        prior_quantile=[float(q) for q in base],
                        prior_point_estimate=[float(q) * total for q in base],
                    )
                self._trace_lookup(
                    factor, grid, tuple(float(q) for q in quantiles),
                    None
                    if posterior is None
                    else tuple(float(q) * total for q in quantiles),
                    factor.source != "magic", feedback,
                )
        if selectivity is None:
            selectivity = np.ones(len(grid))
        # ``selectivity * total`` is, lane by lane, the float64 product
        # ``_invert`` computes at that lane's threshold.
        return VectorCardinalityEstimate(
            tables=tables,
            selectivity=selectivity,
            cardinality=selectivity * total,
            root_table=root,
            source=source,
            posterior=posterior,
            threshold=grid,
        )

    def _unfolded(self, posterior: SelectivityPosterior) -> SelectivityPosterior:
        """``posterior`` without its feedback pseudo-counts: the
        uncorrected path a feedback span records beside the estimate."""
        return SelectivityPosterior(posterior.k, posterior.n, self.prior)

    def _trace_lookup(
        self,
        factor: _Factor,
        threshold,
        quantile,
        point_estimate,
        lut_hit: bool,
        feedback: dict | None,
    ) -> None:
        """Record one estimation-evidence span (tracing path only)."""
        k, n = factor.counts
        predicate = factor.predicate
        self.tracer.record_estimation(
            EstimationSpan(
                tables=tuple(sorted(factor.tables)),
                source=factor.source,
                k=None if k is None else int(k),
                n=None if n is None else int(n),
                prior=None
                if factor.source == "magic"
                else factor.model.prior.name,
                threshold=threshold,
                quantile=quantile,
                point_estimate=point_estimate,
                lut_hit=lut_hit,
                predicate=None if predicate is None else str(predicate),
                feedback=feedback,
            )
        )

    # ------------------------------------------------------------------
    def _count_satisfying(self, synopsis, predicate: Expr | None) -> int:
        """Count synopsis tuples satisfying ``predicate``."""
        if predicate is None:
            return synopsis.size
        return int(self._synopsis_mask(synopsis, predicate).sum())

    def _synopsis_mask(self, synopsis, predicate: Expr) -> np.ndarray:
        """Boolean mask of the synopsis tuples satisfying ``predicate``.

        Each top-level conjunct is evaluated once per synopsis and its
        boolean mask reused across the many overlapping subexpressions
        an optimizer run probes; the conjunction of cached masks equals
        evaluating the whole predicate directly.
        """
        per_synopsis = self._mask_cache.get(synopsis)
        if per_synopsis is None:
            per_synopsis = {}
            self._mask_cache[synopsis] = per_synopsis
        mask = np.ones(synopsis.size, dtype=bool)
        for conjunct in split_conjuncts(predicate):
            key = conjunct.cache_key()
            cached = per_synopsis.get(key)
            if cached is None:
                cached = np.asarray(
                    conjunct.evaluate(synopsis.frame), dtype=bool
                )
                per_synopsis[key] = cached
            mask &= cached
        return mask

    # ------------------------------------------------------------------
    # GROUP BY sizing (Section 3.5)
    # ------------------------------------------------------------------
    def estimate_groups(
        self,
        tables: Iterable[str],
        group_by: Sequence[str],
        predicate: Expr | None,
        rows: float,
        hint: float | str | None = None,
    ) -> float:
        """GEE over the group keys of the covering synopsis's qualifying
        tuples, scaled to this estimator's own row estimate so groups
        inherit ``T``; the base heuristic when no synopsis covers
        ``tables`` or one cannot resolve a column."""
        try:
            names = set(tables)
            synopsis = self.statistics.synopsis_covering(names)
            if synopsis is not None and group_by:
                frame = synopsis.frame
                if predicate is not None:
                    frame = frame.mask(self._synopsis_mask(synopsis, predicate))
                keys = _combined_keys(frame, group_by)
                cardinality = self.estimate(names, predicate, hint).cardinality
                return gee_estimator(keys, max(1, int(round(cardinality))))
        except ReproError:
            # What the estimator and the catalog raise (no root relation,
            # an unresolvable column); anything else is a bug and propagates.
            pass
        return super().estimate_groups(tables, group_by, predicate, rows, hint=hint)

    def describe(self) -> str:
        return f"robust(T={self.threshold:.0%}, prior={self.prior.name})"


def _combined_keys(frame, group_by: Sequence[str]) -> np.ndarray:
    """Multi-column group keys collapsed into one hashable array."""
    arrays = [frame.column(name) for name in group_by]
    if len(arrays) == 1:
        return arrays[0]
    combined = arrays[0].astype(np.str_)
    for array in arrays[1:]:
        combined = np.char.add(np.char.add(combined, "\x1f"), array.astype(np.str_))
    return combined
