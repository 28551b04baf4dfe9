"""Equi-depth histograms with per-bucket row and distinct counts.

This is the baseline statistic the paper compares against: the
commercial system's ~250-bucket histograms storing "an attribute value,
along with counts of the number of records and distinct values in the
bucket" (Section 6.1). Estimates for conjunctions multiply marginal
selectivities — the attribute-value-independence assumption whose
failure the experiments exploit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StatisticsError


class EquiDepthHistogram:
    """An equi-depth histogram over one numeric (or date-ordinal) column.

    Buckets hold roughly equal row counts; each records its value range
    ``(lower, upper]`` (the first bucket includes its lower bound), the
    exact row count, and the number of distinct values it contains.
    """

    def __init__(self, values: np.ndarray, num_buckets: int = 250) -> None:
        if num_buckets <= 0:
            raise StatisticsError(f"num_buckets must be positive, got {num_buckets}")
        if values.ndim != 1 or len(values) == 0:
            raise StatisticsError("histogram requires a non-empty 1-D column")
        if values.dtype.kind not in ("i", "u", "f"):
            raise StatisticsError(
                f"histograms support numeric columns only, got dtype {values.dtype}"
            )

        sorted_values = np.sort(values)
        self.total_rows = len(values)
        buckets = min(num_buckets, self.total_rows)
        # Split positions at equi-depth quantiles, then snap each upper
        # boundary outward so equal values never straddle buckets. A
        # raw edge that falls inside the duplicate run an earlier edge
        # already snapped to has the same snapped end, so the buckets
        # are the first occurrence of each snapped end.
        raw_edges = np.linspace(0, self.total_rows, buckets + 1).astype(np.int64)
        boundary_values = sorted_values[raw_edges[1:] - 1]
        ends = np.searchsorted(sorted_values, boundary_values, side="right")
        keep = np.ones(len(ends), dtype=bool)
        keep[1:] = ends[1:] != ends[:-1]
        ends = ends[keep].astype(np.int64, copy=False)
        boundary_values = boundary_values[keep]
        # Buckets end where a run of equal values ends, so a bucket's
        # distinct count is the number of runs starting inside it.
        run_starts = np.ones(self.total_rows, dtype=bool)
        run_starts[1:] = sorted_values[1:] != sorted_values[:-1]
        runs_through = np.cumsum(run_starts, dtype=np.int64)[ends - 1]
        self.minimum = float(sorted_values[0])
        self.uppers = boundary_values.astype(np.float64)
        self.counts = np.diff(ends, prepend=0)
        self.distincts = np.diff(runs_through, prepend=0)
        #: Exact frequency of each bucket's upper-boundary value (the
        #: EQ_ROWS of a SQL Server histogram step) — boundaries snap to
        #: duplicate runs, so heavy hitters always sit on a boundary.
        self.boundary_counts = ends - np.searchsorted(
            sorted_values, boundary_values, side="left"
        )
        # One histogram is shared by every statistics manager over the
        # same table, so nobody may edit it in place.
        for array in (self.uppers, self.counts, self.distincts, self.boundary_counts):
            array.setflags(write=False)

    @property
    def num_buckets(self) -> int:
        """Number of (non-empty) buckets actually built."""
        return len(self.uppers)

    @property
    def distinct_values(self) -> int:
        """Total distinct values (sum of per-bucket distinct counts)."""
        return int(self.distincts.sum())

    def _bucket_lowers(self) -> np.ndarray:
        return np.concatenate(([self.minimum], self.uppers[:-1]))

    def selectivity_eq(self, value: float) -> float:
        """Estimated fraction of rows equal to ``value``.

        A boundary value returns its exact frequency (the histogram
        stores it); interior values use the uniform-frequency
        assumption over the rest of the containing bucket.
        """
        value = float(value)
        if value < self.minimum or value > self.uppers[-1]:
            return 0.0
        bucket = int(np.searchsorted(self.uppers, value, side="left"))
        if value == self.uppers[bucket]:
            return float(self.boundary_counts[bucket]) / self.total_rows
        interior_rows = int(self.counts[bucket] - self.boundary_counts[bucket])
        interior_distinct = max(1, int(self.distincts[bucket]) - 1)
        return interior_rows / (interior_distinct * self.total_rows)

    def selectivity_range(
        self,
        low: float | None,
        high: float | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows inside the ``low``/``high`` range.

        Bounds of ``None`` are unbounded; the inclusivity flags select
        between ``<``/``<=`` (and ``>``/``>=``) semantics at each bound.
        Each bucket contributes its boundary value's exact frequency as
        a point mass at the upper bound plus the remaining rows spread
        uniformly over the bucket's interior (continuous interpolation)
        — the same decomposition SQL Server's EQ_ROWS/RANGE_ROWS steps
        use, which keeps narrow ranges over discrete data from
        vanishing. The point mass is counted only when the boundary
        value actually satisfies the (possibly strict) bound, so
        ``x < boundary`` and ``x <= boundary`` estimate differently.
        """
        if low is None:
            lo, low_inclusive = self.minimum, True
        else:
            lo = float(low)
        if high is None:
            hi, high_inclusive = float(self.uppers[-1]), True
        else:
            hi = float(high)
        if hi < lo or (hi == lo and not (low_inclusive and high_inclusive)):
            return 0.0
        lowers = self._bucket_lowers()
        total = 0.0
        for i in range(self.num_buckets):
            b_lo = lowers[i] if i > 0 else self.minimum
            b_hi = self.uppers[i]
            boundary = float(self.boundary_counts[i])
            interior = float(self.counts[i]) - boundary
            # point mass at the bucket's upper-boundary value, counted
            # only when that value satisfies both (strict?) bounds
            above_lo = b_hi > lo or (b_hi == lo and low_inclusive)
            below_hi = b_hi < hi or (b_hi == hi and high_inclusive)
            if above_lo and below_hi:
                total += boundary
            # interior mass, uniform over (b_lo, b_hi)
            if interior > 0 and b_hi > b_lo:
                overlap_lo = max(lo, b_lo)
                overlap_hi = min(hi, b_hi)
                if overlap_hi > overlap_lo:
                    total += interior * (overlap_hi - overlap_lo) / (b_hi - b_lo)
        return min(1.0, total / self.total_rows)

    def __repr__(self) -> str:
        return (
            f"EquiDepthHistogram(buckets={self.num_buckets}, "
            f"rows={self.total_rows}, distinct={self.distinct_values})"
        )
