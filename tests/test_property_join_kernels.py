"""Property tests: the sort-free equi-join matchers equal their reference.

``kernels.match_keys`` and ``SortedIndex.match_many`` pick a formulation
from the *structure* of their keys — which side is unique, how wide the
key range is next to the row counts, which integer width holds it — so
the examples are generated over that structure rather than over raw
arrays: hypothesis draws the shape (dtype, sizes straddling
``SEMIJOIN_SMALL_N``, unique or duplicated and sorted or not per side,
how the two ranges sit relative to each other and to the dtype's limits)
and a seeded numpy generator fills it in. Every property is equality
with the reference — values *and* dtypes. The last one lifts it to the
operators: a hash or merge join that matches through a base table's
index returns the frame and the counters of the kernel path.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.catalog import Column, ColumnType, Database, Schema, Table
from repro.engine import (
    ExecutionContext,
    HashJoin,
    MergeJoin,
    SeqScan,
    joinutil,
    kernels,
)
from repro.expressions import col
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


#: The widths a sorted index is probed in, narrowest of each kind to
#: the widest: where a position table's shift would wrap if it were
#: done in the keys' own dtype.
INDEX_DTYPES = [np.int8, np.int16, np.uint8, np.uint64, np.int64]


@settings(max_examples=300, deadline=None)
@given(pair=key_pairs(dtypes=INDEX_DTYPES))
def test_match_many_probes_past_both_ends(pair):
    """Probes one step past either end of the indexed keys miss on the
    position table as they miss on the search, and probes at the dtype's
    own limits (keys or not) agree with it too — compact columns take
    the table, sparse ones the search."""
    probes, column = pair
    info = np.iinfo(column.dtype)
    outside = [info.min, info.max]
    if len(column):
        outside += [int(column.min()) - 1, int(column.max()) + 1]
    outside = [value for value in outside if info.min <= value <= info.max]
    probes = np.concatenate((probes, np.array(outside, dtype=column.dtype)))
    index = SortedIndex(column)
    got = index.match_many(probes)
    if len(column):
        event("position table" if index._position_table is not None else "search")
    assert_same_pairs(got, kernels.match_keys_numpy(probes, column))


def _keyed_table(name: str, keys: np.ndarray, rng) -> Table:
    """``keys`` as an indexed base column beside a row id and a random
    flag a scan can filter on."""
    schema = Schema(
        [
            Column("id", ColumnType.INT64),
            Column("k", ColumnType.INT64),
            Column("flag", ColumnType.INT64),
        ]
    )
    data = {
        "id": np.arange(len(keys)),
        "k": keys,
        "flag": rng.integers(0, 2, len(keys)),
    }
    return Table(name, schema, data)


def _run(plan, database):
    ctx = ExecutionContext(database)
    frame = plan.execute(ctx)
    return {name: frame.column(name) for name in frame.column_names}, ctx.counters


@settings(max_examples=150, deadline=None)
@given(
    pair=key_pairs(dtypes=[np.int64]),
    # (left, right) scan filtered; a base left side alone is the kernel
    # path on both sides of the comparison, so it is not drawn.
    filtered=st.sampled_from([(True, False), (False, False), (True, True)]),
    operator=st.sampled_from([HashJoin, MergeJoin]),
    seed=st.integers(0, 2**32 - 1),
)
def test_joins_over_base_indexes_equal_the_kernel_path(pair, filtered, operator, seed):
    """The base side right, both or neither (an unfiltered scan hands
    out the indexed column itself; a filtered one does not): the join's
    frame equals, column by column and dtype by dtype, the one the
    kernels' ``match_keys`` path builds, and charges equal
    ``WorkCounters``."""
    rng = np.random.default_rng(seed)
    database = Database(
        [_keyed_table("l", pair[0], rng), _keyed_table("r", pair[1], rng)]
    )
    database.create_index("l", "k")
    database.create_index("r", "k")
    scans = [
        SeqScan(name, col(f"{name}.flag") == 1 if keep_some else None)
        for name, keep_some in zip(("l", "r"), filtered)
    ]
    plan = operator(*scans, "l.k", "r.k")
    event(f"{operator.__name__}, filtered (left, right) = {filtered}")

    columns, counters = _run(plan, database)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(joinutil, "_base_column_index", lambda *args: None)
        expected, expected_counters = _run(plan, database)
    assert list(columns) == list(expected)
    for name, values in columns.items():
        assert values.dtype == expected[name].dtype, name
        np.testing.assert_array_equal(values, expected[name], err_msg=name)
    assert counters.as_dict() == expected_counters.as_dict()
