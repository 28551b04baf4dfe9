"""The vectorized histogram build equals the per-bucket loop it replaced.

``_loop_build`` is the constructor body as it stood before the build
became whole-array operations, kept here as the reference: every array
(values *and* dtypes), ``minimum``, ``total_rows`` and ``num_buckets``
must match it, and so must the selectivities read off the result. NaN
is excluded from the generated floats — a histogram over NaN never had
meaningful boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.stats import EquiDepthHistogram

ARRAYS = ("uppers", "counts", "distincts", "boundary_counts")


def _loop_build(values: np.ndarray, num_buckets: int) -> dict:
    sorted_values = np.sort(values)
    total_rows = len(values)
    buckets = min(num_buckets, total_rows)
    raw_edges = np.linspace(0, total_rows, buckets + 1).astype(np.int64)
    uppers: list[float] = []
    counts: list[int] = []
    distincts: list[int] = []
    boundary_counts: list[int] = []
    start = 0
    for edge in raw_edges[1:]:
        end = int(edge)
        if end <= start:
            continue
        boundary_value = sorted_values[end - 1]
        end = int(np.searchsorted(sorted_values, boundary_value, side="right"))
        chunk = sorted_values[start:end]
        if len(chunk) == 0:
            continue
        uppers.append(float(boundary_value))
        counts.append(len(chunk))
        distincts.append(int(len(np.unique(chunk))))
        boundary_counts.append(
            int(np.searchsorted(chunk, boundary_value, side="right")
                - np.searchsorted(chunk, boundary_value, side="left"))
        )
        start = end
    return {
        "minimum": float(sorted_values[0]),
        "total_rows": total_rows,
        "uppers": np.asarray(uppers, dtype=np.float64),
        "counts": np.asarray(counts, dtype=np.int64),
        "distincts": np.asarray(distincts, dtype=np.int64),
        "boundary_counts": np.asarray(boundary_counts, dtype=np.int64),
    }


def assert_equals_loop(values: np.ndarray, num_buckets: int) -> EquiDepthHistogram:
    histogram = EquiDepthHistogram(values, num_buckets)
    reference = _loop_build(values, num_buckets)
    for name in ARRAYS:
        built, expected = getattr(histogram, name), reference[name]
        assert built.dtype == expected.dtype, name
        assert np.array_equal(built, expected), name
    assert histogram.minimum == reference["minimum"]
    assert type(histogram.minimum) is float
    assert histogram.total_rows == reference["total_rows"]
    assert histogram.num_buckets == len(reference["uppers"])
    return histogram


def _zipf(rng, rows):
    return np.minimum(rng.zipf(1.3, rows), 5_000).astype(np.int64)


PINNED = {
    "random_ints_60k": lambda rng: rng.integers(0, 25_000, 60_000),
    "two_decimal_floats": lambda rng: np.round(rng.uniform(0, 900, 60_000), 2),
    "zipf_heavy_hitters": lambda rng: _zipf(rng, 60_000),
    "all_equal": lambda rng: np.full(4_000, 7, dtype=np.int64),
    "strictly_increasing": lambda rng: np.arange(5_000, dtype=np.int64) * 3,
    "one_row": lambda rng: np.array([42], dtype=np.int64),
    "two_values": lambda rng: np.repeat(np.array([1.5, 2.5]), [900, 100]),
    "negative_floats": lambda rng: rng.normal(0.0, 50.0, 10_000),
    "int32": lambda rng: rng.integers(-500, 500, 9_000).astype(np.int32),
    "uint16": lambda rng: rng.integers(0, 300, 9_000).astype(np.uint16),
    "uint64_large": lambda rng: (
        rng.integers(0, 50, 3_000).astype(np.uint64) + np.uint64(2**63)
    ),
    "float32": lambda rng: rng.uniform(0, 10, 9_000).astype(np.float32),
}


@pytest.mark.parametrize("num_buckets", [1, 3, 250, 100_000])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_columns_equal_loop(case, num_buckets):
    values = PINNED[case](np.random.default_rng(11))
    histogram = assert_equals_loop(values, num_buckets)
    assert histogram.counts.sum() == len(values)
    assert histogram.distincts.sum() == len(np.unique(values))


def test_input_is_not_modified():
    values = np.random.default_rng(3).integers(0, 100, 1_000)
    before = values.copy()
    EquiDepthHistogram(values, 20)
    assert np.array_equal(values, before)


@pytest.mark.parametrize("case", ["random_ints_60k", "two_decimal_floats",
                                  "zipf_heavy_hitters", "all_equal"])
def test_selectivities_agree_on_probe_grid(case):
    """A histogram holding the loop's arrays answers every probe the
    same — the estimators read nothing but these fields."""
    values = PINNED[case](np.random.default_rng(11))
    histogram = EquiDepthHistogram(values, 250)
    reference = object.__new__(EquiDepthHistogram)
    reference.__dict__.update(_loop_build(values, 250))
    low, high = float(values.min()), float(values.max())
    probes = np.concatenate(
        [np.linspace(low - 1.0, high + 1.0, 41), histogram.uppers[:: 25]]
    )
    for probe in probes:
        assert histogram.selectivity_eq(probe) == reference.selectivity_eq(probe)
    for lo in probes[::4]:
        for hi in probes[::5]:
            for low_inc, high_inc in ((True, True), (False, True), (False, False)):
                assert histogram.selectivity_range(
                    lo, hi, low_inc, high_inc
                ) == reference.selectivity_range(lo, hi, low_inc, high_inc)
    assert histogram.selectivity_range(None, None) == reference.selectivity_range(
        None, None
    )


class TestGeneratedColumns:
    @settings(max_examples=150, deadline=None)
    @given(
        values=npst.arrays(
            st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.uint32]),
            st.integers(min_value=1, max_value=300),
            elements=st.integers(min_value=0, max_value=40),
        ),
        num_buckets=st.integers(min_value=1, max_value=400),
    )
    def test_integer_columns(self, values, num_buckets):
        assert_equals_loop(values, num_buckets)

    @settings(max_examples=150, deadline=None)
    @given(
        values=npst.arrays(
            np.int64,
            st.integers(min_value=1, max_value=300),
            elements=st.integers(min_value=-(2**62), max_value=2**62),
        ),
        num_buckets=st.integers(min_value=1, max_value=400),
    )
    def test_wide_integers(self, values, num_buckets):
        assert_equals_loop(values, num_buckets)

    @settings(max_examples=150, deadline=None)
    @given(
        values=npst.arrays(
            st.sampled_from([np.float64, np.float32]),
            st.integers(min_value=1, max_value=300),
            elements=st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, width=32
            ),
        ),
        decimals=st.integers(min_value=0, max_value=3),
        num_buckets=st.integers(min_value=1, max_value=400),
    )
    def test_float_columns(self, values, decimals, num_buckets):
        assert_equals_loop(np.round(values, decimals), num_buckets)
