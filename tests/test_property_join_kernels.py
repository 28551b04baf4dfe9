"""Property tests: the sort-free equi-join matchers equal their reference.

``kernels.match_keys`` and ``SortedIndex.match_many`` pick a formulation
from the *structure* of their keys — which side is unique, how wide the
key range is next to the row counts, which integer width holds it — so
the examples are generated over that structure rather than over raw
arrays: hypothesis draws the shape (dtype, sizes straddling
``SEMIJOIN_SMALL_N``, unique or duplicated and sorted or not per side,
how the two ranges sit relative to each other and to the dtype's limits)
and a seeded numpy generator fills it in. Every property is equality
with the reference — values *and* dtypes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.indexes import SortedIndex

INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]

#: Side lengths whose sums land on both sides of ``SEMIJOIN_SMALL_N``
#: (2048 + 2048 stays on the small path, 2048 + 2049 leaves it).
SIZES = [0, 1, 300, 2048, 2049, 4097, 9000]
assert 2048 + 2048 <= kernels.SEMIJOIN_SMALL_N < 2048 + 2049

#: How the two sides' key ranges relate.
LAYOUTS = ["shared", "overlapping", "disjoint", "wide"]

#: Where the ranges sit in the dtype: at zero, straddling it (signed
#: dtypes), or against the dtype's lowest / highest value.
ANCHORS = ["zero", "negative", "bottom", "top"]


def _side(rng, dtype, low, span, size, unique, ordered):
    """``size`` keys of ``dtype`` drawn from ``[low, low + span)``."""
    if unique and span <= 4 * max(size, 1):
        offsets = rng.permutation(span)[:size]
    else:
        offsets = rng.integers(0, span, size=size)
        if unique:
            offsets = rng.permutation(np.unique(offsets))
    if ordered:
        offsets = np.sort(offsets)
    # Shift modulo 2**64, then truncate to the dtype: exact in every
    # width because ``low + offset`` is a value the dtype holds.
    return (offsets.astype(np.uint64) + np.uint64(low % 2**64)).astype(dtype)


@st.composite
def key_pairs(draw, dtypes=INTEGER_DTYPES):
    """``(left, right)`` integer key arrays of one generated structure."""
    info = np.iinfo(draw(st.sampled_from(dtypes)))
    left_size, right_size = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES))
    layout, anchor = draw(st.sampled_from(LAYOUTS)), draw(st.sampled_from(ANCHORS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    width = info.max - info.min + 1
    # Compact by the matcher's rule (well under 4x the combined rows) or
    # far past it, up to everything the dtype holds: a side spanning
    # more than half of that is where shifting in the keys' own dtype
    # would wrap. Two ranges shifted against each other share the dtype.
    span = 2**40 if layout == "wide" else 2 * max(left_size, right_size, 1)
    span = min(span, width if layout in ("shared", "wide") else width // 2)
    shift = {"shared": 0, "overlapping": span // 2, "disjoint": span, "wide": 0}[layout]
    top = info.max - (span + shift) + 1
    low = {
        "zero": min(0, top),
        "negative": max(info.min, -(span + shift) // 2),
        "bottom": info.min,
        "top": top,
    }[anchor]
    left = _side(
        rng, info.dtype, low, span, left_size, draw(st.booleans()), draw(st.booleans())
    )
    right = _side(
        rng, info.dtype, low + shift, span, right_size,
        draw(st.booleans()), draw(st.booleans()),
    )
    return left, right


def assert_same_pairs(got, want):
    for got_idx, want_idx in zip(got, want, strict=True):
        assert got_idx.dtype == want_idx.dtype
        np.testing.assert_array_equal(got_idx, want_idx)


@settings(max_examples=300, deadline=None)
@given(pair=key_pairs())
def test_match_keys_equals_reference(pair):
    left, right = pair
    assert_same_pairs(
        kernels.match_keys(left, right), kernels.match_keys_numpy(left, right)
    )


@settings(max_examples=300, deadline=None)
@given(pair=key_pairs())
def test_membership_equals_isin(pair):
    left, right = pair
    mask = kernels.membership(left, right)
    assert mask.dtype == np.bool_
    np.testing.assert_array_equal(mask, np.isin(left, right))


@settings(max_examples=300, deadline=None)
@given(pair=key_pairs())
def test_match_many_equals_reference(pair):
    probes, column = pair
    assert_same_pairs(
        SortedIndex(column).match_many(probes),
        kernels.match_keys_numpy(probes, column),
    )


@settings(max_examples=150, deadline=None)
@given(
    pair=key_pairs(dtypes=[np.int16]),
    float_dtype=st.sampled_from([np.float32, np.float64]),
    nan_share=st.sampled_from([0.0, 0.0, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_match_many_float_columns(pair, float_dtype, nan_share, seed):
    """Halves of 16-bit integers are exact in float32; NaNs, which sort
    and search as one key past every number, match each other in the
    reference and so must here."""
    rng = np.random.default_rng(seed)
    probes, column = (keys.astype(float_dtype) / 2 for keys in pair)
    probes[rng.random(len(probes)) < nan_share] = np.nan
    column[rng.random(len(column)) < nan_share] = np.nan
    assert_same_pairs(
        SortedIndex(column).match_many(probes),
        kernels.match_keys_numpy(probes, column),
    )


@settings(max_examples=100, deadline=None)
@given(pair=key_pairs(dtypes=[np.int16]))
def test_match_many_string_columns(pair):
    probes, column = (keys.astype("U6") for keys in pair)
    assert_same_pairs(
        SortedIndex(column).match_many(probes),
        kernels.match_keys_numpy(probes, column),
    )
