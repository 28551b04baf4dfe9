"""Unit tests for the Beta posterior, including the paper's worked numbers."""

import numpy as np
import pytest
from scipy import integrate

from repro.core import (
    JEFFREYS,
    UNIFORM,
    BetaQuantileTable,
    Prior,
    SelectivityPosterior,
    quantile_table,
)
from repro.errors import EstimationError


class TestShapes:
    def test_jeffreys_shapes_match_equation_2(self):
        """Paper Eq. (2): posterior is Beta(k + 1/2, n − k + 1/2)."""
        posterior = SelectivityPosterior(10, 100)
        assert posterior.alpha == 10.5
        assert posterior.beta == 90.5

    def test_uniform_prior_shapes(self):
        posterior = SelectivityPosterior(10, 100, UNIFORM)
        assert posterior.alpha == 11.0
        assert posterior.beta == 91.0

    def test_section_3_4_worked_example(self):
        """Paper Section 3.4: 10 of 100 sampled tuples satisfy; the
        density is ∝ z^9.5 (1−z)^89.5 and thresholds 20/50/80 % give
        estimates 7.8 %, 10.1 %, 12.8 %."""
        posterior = SelectivityPosterior(10, 100)
        assert posterior.ppf(0.20) == pytest.approx(0.078, abs=0.002)
        assert posterior.ppf(0.50) == pytest.approx(0.101, abs=0.002)
        assert posterior.ppf(0.80) == pytest.approx(0.128, abs=0.002)


class TestDistributionBasics:
    def test_pdf_integrates_to_one(self):
        posterior = SelectivityPosterior(5, 50)
        total, _ = integrate.quad(posterior.pdf, 0, 1)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cdf_monotone(self):
        posterior = SelectivityPosterior(5, 50)
        grid = np.linspace(0, 1, 101)
        cdf = posterior.cdf(grid)
        assert (np.diff(cdf) >= 0).all()
        assert cdf[0] == pytest.approx(0.0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_ppf_inverts_cdf(self):
        posterior = SelectivityPosterior(25, 200)
        for t in (0.05, 0.5, 0.95):
            assert posterior.cdf(posterior.ppf(t)) == pytest.approx(t, abs=1e-9)

    def test_ppf_vectorized(self):
        posterior = SelectivityPosterior(25, 200)
        out = posterior.ppf(np.array([0.2, 0.8]))
        assert out.shape == (2,)
        assert out[0] < out[1]

    def test_ppf_monotone_in_threshold(self):
        posterior = SelectivityPosterior(3, 100)
        thresholds = np.linspace(0.01, 0.99, 25)
        estimates = posterior.ppf(thresholds)
        assert (np.diff(estimates) > 0).all()

    def test_ppf_bounds_raise(self):
        posterior = SelectivityPosterior(3, 100)
        with pytest.raises(EstimationError):
            posterior.ppf(0.0)
        with pytest.raises(EstimationError):
            posterior.ppf(1.0)

    def test_ppf_checks_a_scalar_as_the_array_check_would(self):
        """A scalar threshold is range-checked as a float; every input
        is accepted or refused — and inverted — exactly as when it was
        boxed into an array first."""
        from scipy import special

        posterior = SelectivityPosterior(3, 100)
        message = r"confidence threshold must lie strictly in \(0, 1\)"
        scalars = [
            0.0, 1.0, -0.25, 1.5, 0, 1, True, False, np.float64(1.0),
            np.float32(0.0), np.int64(1), float("inf"), float("-inf"),
            5e-324, 0.3, 1 - 2**-53, np.float64(0.8), np.float32(0.3),
            np.longdouble(0.65), float("nan"),
        ]
        for t in scalars:
            boxed = np.asarray(t, dtype=float)
            if np.any((boxed <= 0) | (boxed >= 1)):
                with pytest.raises(EstimationError, match=message):
                    posterior.ppf(t)
            else:
                out = posterior.ppf(t)
                expected = float(
                    special.betaincinv(posterior.alpha, posterior.beta, boxed)
                )
                assert type(out) is float
                assert np.array([out]).tobytes() == np.array([expected]).tobytes()
        # NaN passes the range check today (both comparisons are false)
        assert np.isnan(posterior.ppf(float("nan")))
        # arrays, 0-d included, keep the vector check
        assert type(posterior.ppf(np.array(0.3))) is float
        assert posterior.ppf(np.array(0.3)) == posterior.ppf(0.3)
        assert posterior.ppf([0.2, 0.8]).shape == (2,)
        for bad in (np.array(0.0), [0.5, 1.0], np.array([[-0.1, 0.5]])):
            with pytest.raises(EstimationError, match=message):
                posterior.ppf(bad)


class TestSummaries:
    def test_mean_formula(self):
        posterior = SelectivityPosterior(10, 100)
        assert posterior.mean == pytest.approx(10.5 / 101.0)

    def test_mle(self):
        assert SelectivityPosterior(10, 100).mle == 0.1

    def test_variance_positive_and_shrinks_with_n(self):
        small = SelectivityPosterior(10, 100)
        large = SelectivityPosterior(100, 1000)
        assert small.variance > large.variance > 0
        assert small.std == pytest.approx(np.sqrt(small.variance))

    def test_credible_interval(self):
        posterior = SelectivityPosterior(50, 500)
        low, high = posterior.credible_interval(0.95)
        assert low < posterior.mean < high
        assert posterior.cdf(high) - posterior.cdf(low) == pytest.approx(0.95)

    def test_credible_interval_bad_level_raises(self):
        with pytest.raises(EstimationError):
            SelectivityPosterior(1, 10).credible_interval(1.5)


class TestPaperFigure4Claims:
    def test_prior_choice_barely_matters(self):
        """Figure 4: Jeffreys vs uniform posteriors nearly identical."""
        jeffreys = SelectivityPosterior(10, 100, JEFFREYS)
        uniform = SelectivityPosterior(10, 100, UNIFORM)
        grid = np.linspace(0.01, 0.3, 50)
        assert np.max(np.abs(jeffreys.cdf(grid) - uniform.cdf(grid))) < 0.06
        # in estimate terms the two differ by well under a selectivity point
        for t in (0.2, 0.5, 0.8):
            assert abs(jeffreys.ppf(t) - uniform.ppf(t)) < 0.005

    def test_sample_size_matters(self):
        """Figure 4: n=500 posterior is much tighter than n=100."""
        small = SelectivityPosterior(10, 100)
        large = SelectivityPosterior(50, 500)
        assert large.std < small.std / 1.8

    def test_zero_satisfying_tuples_leaves_uncertainty(self):
        """Even k=0 leaves a nonzero upper tail — the source of the
        self-adjusting behaviour of Section 6.2.4."""
        posterior = SelectivityPosterior(0, 1000)
        assert posterior.ppf(0.95) > 0.0015

    def test_extreme_counts(self):
        lo = SelectivityPosterior(0, 100)
        hi = SelectivityPosterior(100, 100)
        assert lo.ppf(0.5) < 0.01
        assert hi.ppf(0.5) > 0.99


class TestQuantileTable:
    """The precomputed beta-quantile table must agree with ``ppf``.

    ``betaincinv`` is a ufunc, so the bulk table evaluation and the
    scalar ``ppf`` path are the same elementwise computation — the
    agreement below is exact equality, not approximate.
    """

    GRID = (0.01, 0.05, 0.20, 0.50, 0.80, 0.95, 0.99)

    @pytest.mark.parametrize("prior", [JEFFREYS, UNIFORM], ids=["jeffreys", "uniform"])
    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_rows_match_ppf_at_every_count(self, n, prior):
        table = quantile_table(n, prior, self.GRID)
        for k in range(n + 1):
            posterior = SelectivityPosterior(k, n, prior)
            row = table.row(k)
            for j, t in enumerate(self.GRID):
                assert row[j] == posterior.ppf(t)

    @pytest.mark.parametrize("prior", [JEFFREYS, UNIFORM], ids=["jeffreys", "uniform"])
    @pytest.mark.parametrize("k", [0, 100])
    def test_edge_counts_at_extreme_thresholds(self, k, prior):
        """k=0 and k=n at thresholds 0.01/0.99 — the corners where a
        naive table could underflow or clip."""
        n = 100
        posterior = SelectivityPosterior(k, n, prior)
        row = quantile_table(n, prior, (0.01, 0.99)).row(k)
        assert row[0] == posterior.ppf(0.01)
        assert row[1] == posterior.ppf(0.99)
        assert 0.0 <= row[0] < row[1] <= 1.0

    def test_ppf_vector_matches_scalar_ppf(self):
        posterior = SelectivityPosterior(7, 200)
        out = posterior.ppf_vector(self.GRID)
        assert out.shape == (len(self.GRID),)
        for j, t in enumerate(self.GRID):
            assert out[j] == posterior.ppf(t)

    def test_rows_monotone_in_k_and_threshold(self):
        table = quantile_table(50, JEFFREYS, self.GRID)
        rows = np.array([table.row(k) for k in range(51)])
        assert (np.diff(rows, axis=0) > 0).all()  # more hits, more rows
        assert (np.diff(rows, axis=1) > 0).all()  # higher T, more rows

    def test_rows_are_lazy_and_equal_the_eager_table(self):
        """A never-seen grid materializes only the rows touched, and
        each equals the whole-table ``betaincinv`` bit for bit."""
        from scipy import special

        n, grid = 500, tuple(np.linspace(0.013, 0.987, 32))
        table = BetaQuantileTable(n, JEFFREYS, grid)
        assert table._rows == {}
        touched = (0, 3, 17, 250, 499, 500)
        for k in touched:
            table.row(k)
        assert sorted(table._rows) == list(touched)
        assert table.row(17) is table.row(17)
        k = np.arange(n + 1, dtype=float)
        eager = special.betaincinv(
            (k + JEFFREYS.alpha)[:, None],
            (n - k + JEFFREYS.beta)[:, None],
            np.asarray(grid)[None, :],
        )
        for count in range(n + 1):
            assert np.array_equal(table.row(count), eager[count])

    def test_cache_returns_same_object(self):
        a = quantile_table(64, JEFFREYS, (0.2, 0.8))
        b = quantile_table(64, JEFFREYS, (0.2, 0.8))
        assert a is b
        assert a is not quantile_table(64, UNIFORM, (0.2, 0.8))

    def test_cache_evicts_the_least_recently_used_table(self):
        """A grid that keeps being read outlives any number of one-shot
        grids (a penalty policy brings one per request) inserted around
        it — same object, rows intact."""
        from repro.core.posterior import _TABLE_CACHE_MAX

        lanes = (0.31, 0.62, 0.93)
        table = quantile_table(77, JEFFREYS, lanes)
        row = table.row(5)
        unread = quantile_table(77, JEFFREYS, (0.0005,))
        for i in range(3 * _TABLE_CACHE_MAX):
            quantile_table(77, JEFFREYS, (0.001 + i * 1e-4,))
            if i % (_TABLE_CACHE_MAX - 1) == 0:
                assert quantile_table(77, JEFFREYS, lanes) is table
        assert quantile_table(77, JEFFREYS, lanes) is table
        assert table.row(5) is row
        assert quantile_table(77, JEFFREYS, (0.0005,)) is not unread  # aged out

    def test_cache_survives_concurrent_hits_and_evictions(self):
        """Every hit re-inserts and every one-shot grid evicts: four
        threads doing both must neither raise (a dict resized under
        ``next(iter(...))``) nor lose the table they all keep reading."""
        import sys
        import threading

        lanes = (0.11, 0.52, 0.93)
        table = quantile_table(91, JEFFREYS, lanes)
        failures: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(400):
                    quantile_table(91, JEFFREYS, (0.001 + worker * 0.1 + i * 1e-4,))
                    if quantile_table(91, JEFFREYS, lanes) is not table:
                        raise AssertionError("the shared table was evicted")
            except BaseException as error:  # reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_rows_cannot_be_written(self):
        """Estimates hand a table row out as their selectivity."""
        row = quantile_table(40, JEFFREYS, (0.2, 0.8)).row(3)
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_validation(self):
        with pytest.raises(EstimationError):
            BetaQuantileTable(0, JEFFREYS, (0.5,))
        with pytest.raises(EstimationError):
            BetaQuantileTable(10, JEFFREYS, ())
        with pytest.raises(EstimationError):
            BetaQuantileTable(10, JEFFREYS, (0.0, 0.5))
        with pytest.raises(EstimationError):
            BetaQuantileTable(10, JEFFREYS, (0.5, 1.0))
        table = BetaQuantileTable(10, JEFFREYS, (0.5,))
        with pytest.raises(EstimationError):
            table.row(11)
        with pytest.raises(EstimationError):
            table.row(-1)


class TestValidation:
    def test_bad_counts_raise(self):
        with pytest.raises(EstimationError):
            SelectivityPosterior(-1, 10)
        with pytest.raises(EstimationError):
            SelectivityPosterior(11, 10)
        with pytest.raises(EstimationError):
            SelectivityPosterior(0, 0)

    def test_custom_prior(self):
        prior = Prior.informative(0.2, 8.0)
        posterior = SelectivityPosterior(0, 10, prior)
        assert posterior.alpha == pytest.approx(1.6)

    def test_repr(self):
        assert "Beta(10.5, 90.5)" in repr(SelectivityPosterior(10, 100))
