"""Unit tests for repro.expressions.frame."""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExpressionError
from repro.expressions import Frame
from repro.expressions.frame import _Source
from tests.conftest import materialized_columns


@pytest.fixture
def frame():
    return Frame(
        {
            "t.a": np.array([1, 2, 3, 4]),
            "t.b": np.array([10.0, 20.0, 30.0, 40.0]),
            "u.a": np.array([5, 6, 7, 8]),
        }
    )


class TestConstruction:
    def test_num_rows(self, frame):
        assert frame.num_rows == 4

    def test_empty(self):
        assert Frame({}).num_rows == 0

    def test_ragged_raises(self):
        with pytest.raises(ExpressionError):
            Frame({"a": np.array([1]), "b": np.array([1, 2])})

    def test_from_table(self, two_table_db):
        table = two_table_db.table("part")
        frame = Frame.from_table(table)
        assert frame.num_rows == table.num_rows
        assert "part.p_size" in frame.column_names

    def test_from_table_rows(self, two_table_db):
        table = two_table_db.table("part")
        frame = Frame.from_table_rows(table, np.array([0, 2]))
        assert frame.num_rows == 2
        assert frame.column("part.p_partkey")[1] == 2


class TestColumnResolution:
    def test_qualified(self, frame):
        assert frame.column("t.a")[0] == 1

    def test_unqualified_unique(self, frame):
        assert frame.column("b")[1] == 20.0

    def test_unqualified_ambiguous_raises(self, frame):
        with pytest.raises(ExpressionError, match="ambiguous"):
            frame.column("a")

    def test_missing_raises(self, frame):
        with pytest.raises(ExpressionError, match="no column"):
            frame.column("zzz")

    def test_contains(self, frame):
        assert "t.a" in frame
        assert "b" in frame
        assert "a" not in frame  # ambiguous counts as absent
        assert "zzz" not in frame


class TestTransforms:
    def test_mask(self, frame):
        out = frame.mask(np.array([True, False, True, False]))
        assert out.num_rows == 2
        assert list(out.column("t.a")) == [1, 3]

    def test_mask_wrong_length_raises(self, frame):
        with pytest.raises(ExpressionError):
            frame.mask(np.array([True]))

    def test_mask_wrong_dtype_raises(self, frame):
        with pytest.raises(ExpressionError):
            frame.mask(np.array([1, 0, 1, 0]))

    def test_take(self, frame):
        out = frame.take(np.array([3, 0, 0]))
        assert list(out.column("t.a")) == [4, 1, 1]

    def test_take_empty_of_any_dtype(self, frame):
        assert frame.take([]).num_rows == 0
        assert frame.take(np.empty(0, dtype=np.float64)).column("t.a").dtype == np.int64

    @pytest.mark.parametrize(
        "positions",
        [np.array([1.7, 2.2]), np.array([1.0, 2.0]), np.array(["1", "2"])],
        ids=["fractional", "whole-floats", "strings"],
    )
    def test_take_rejects_non_integer_positions(self, frame, positions):
        # astype(int64) would truncate 1.7 to row 1 and answer.
        with pytest.raises(ExpressionError, match="integer positions"):
            frame.take(positions)

    def test_select(self, frame):
        out = frame.select(["t.b"])
        assert out.column_names == ["t.b"]

    def test_merge(self, frame):
        other = Frame({"v.x": np.arange(4)})
        merged = frame.take(np.array([3, 2, 1, 0])).merged_with(other)
        assert merged.num_rows == 4
        assert "v.x" in merged.column_names
        # Arrays a frame was built from are already in memory; columns
        # behind a selection vector are not until read.
        assert materialized_columns(merged) == ["v.x"]

    def test_merge_length_mismatch_raises(self, frame):
        with pytest.raises(ExpressionError):
            frame.merged_with(Frame({"v.x": np.arange(3)}))

    def test_merge_duplicate_column_raises(self, frame):
        with pytest.raises(ExpressionError, match="duplicate"):
            frame.merged_with(Frame({"t.a": np.arange(4)}))


def _base(prefix: str, n: int, seed: int) -> dict[str, np.ndarray]:
    """One "table" of every dtype the engine stores."""
    rng = np.random.default_rng(seed)
    return {
        f"{prefix}.i": rng.integers(-50, 50, n),
        f"{prefix}.f": rng.uniform(0, 1, n),
        f"{prefix}.s": rng.choice(np.array(["x", "yy", "zzz"]), n),
        f"{prefix}.narrow": rng.integers(0, 100, n).astype(np.int32),
        f"{prefix}.flag": rng.random(n) < 0.5,
    }


#: Steps of a generated chain; each draws its arrays from its own seed
#: once the frame's current length is known.
STEPS = (
    "mask", "mask-none", "mask-all", "take", "take-one-row", "take-empty",
    "select", "merge", "read",
)


class TestReadsBackBasePositions:
    """The comparand is numpy: after any chain of transforms, column
    ``name`` is ``base[name][positions]`` — same elements, same dtype —
    where ``positions`` is what the same chain does to ``arange(n)``."""

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(0, 120),
        steps=st.lists(
            st.tuples(st.sampled_from(STEPS), st.integers(0, 2**31 - 1)),
            max_size=8,
        ),
    )
    @example(n=1_200_000, steps=[("mask", 1), ("read", 0), ("take", 2)])
    @example(n=400, steps=[("take-one-row", 3), ("mask", 4)])
    @example(n=400, steps=[("mask-none", 0), ("take", 1), ("merge", 2)])
    @example(n=400, steps=[("take-empty", 0), ("select", 1)])
    @example(n=50, steps=[("merge", 5), ("read", 6), ("select", 7), ("mask", 8)])
    def test_chain_reads_back_base_positions(self, n, steps):
        bases = {"t": _base("t", n, seed=0)}
        frame = Frame(bases["t"])
        # Model: per column, which base it came from and which positions.
        model = {name: ("t", np.arange(n)) for name in bases["t"]}
        length = n
        for index, (step, seed) in enumerate(steps):
            rng = np.random.default_rng(seed)
            if step.startswith("mask"):
                keep = {
                    "mask": rng.random(length) < 0.5,
                    "mask-none": np.zeros(length, dtype=bool),
                    "mask-all": np.ones(length, dtype=bool),
                }[step]
                frame = frame.mask(keep)
                model = {k: (b, pos[keep]) for k, (b, pos) in model.items()}
            elif step.startswith("take"):
                if step == "take-empty" or length == 0:
                    rows = np.empty(0, dtype=np.int64)
                elif step == "take-one-row":
                    rows = np.full(int(rng.integers(1, 300)), rng.integers(length))
                else:
                    rows = rng.integers(0, length, int(rng.integers(0, 2 * length + 1)))
                frame = frame.take(rows)
                model = {k: (b, pos[rows]) for k, (b, pos) in model.items()}
            elif step == "select":
                names = list(model)
                order = rng.permutation(len(names))[: max(1, len(names) // 2)]
                kept = [names[i] for i in order]
                frame = frame.select(kept)
                model = {k: model[k] for k in kept}
            elif step == "merge":
                prefix = f"m{index}"
                bases[prefix] = other = _base(prefix, 7, seed)
                rows = rng.integers(0, 7, length)
                frame = frame.merged_with(Frame(other).take(rows))
                model.update({name: (prefix, rows) for name in other})
            else:  # read: memoize one column mid-chain
                frame.column(list(model)[int(rng.integers(len(model)))])
            length = len(next(iter(model.values()))[1])

        assert frame.column_names == list(model)
        assert frame.num_rows == length
        for name, (prefix, positions) in model.items():
            expected = bases[prefix][name][positions]
            column = frame.column(name)
            assert column.dtype == expected.dtype, name
            np.testing.assert_array_equal(column, expected, err_msg=name)


class TestGatherObservation:
    """Whoever stores a frame (the scan cache) is told what the frame
    comes to retain: each array first gathered through a selection."""

    @pytest.fixture
    def filtered(self, two_table_db):
        table = two_table_db.table("lineitem")
        return Frame.from_table_rows(table, np.arange(0, 100, 2))

    def test_owned_nbytes_is_selections_plus_gathers_through_one(self, filtered):
        assert filtered.owned_nbytes() == 50 * 8  # one shared selection
        quantity = filtered.column("lineitem.l_quantity")
        assert filtered.owned_nbytes() == 50 * 8 + quantity.nbytes

    def test_identity_and_eager_frames_own_nothing(self, two_table_db, frame):
        whole = Frame.from_table(two_table_db.table("lineitem"))
        whole.column("lineitem.l_quantity")
        assert whole.owned_nbytes() == 0
        assert frame.owned_nbytes() == 0

    def test_first_gather_reports_its_size_once(self, filtered):
        reported = []
        filtered.watch_gathers(reported.append)
        quantity = filtered.column("lineitem.l_quantity")
        assert reported == [quantity.nbytes]
        assert filtered.column("l_quantity") is quantity
        assert reported == [quantity.nbytes]

    def test_derived_frames_report_nothing(self, filtered):
        reported = []
        filtered.watch_gathers(reported.append)
        for derived in (
            filtered.mask(np.arange(50) % 2 == 0),
            filtered.take(np.array([3, 1])),
            filtered.select(["lineitem.l_quantity"]),
            filtered.take(np.array([3, 1])).merged_with(Frame({"x.y": np.arange(2)})),
        ):
            derived.column("lineitem.l_quantity")
        assert reported == []

    def test_identity_source_reports_nothing(self, two_table_db):
        whole = Frame.from_table(two_table_db.table("lineitem"))
        reported = []
        whole.watch_gathers(reported.append)
        whole.column("lineitem.l_quantity")
        assert reported == []

    def test_unwatching_stops_the_reports(self, filtered):
        reported = []
        filtered.watch_gathers(reported.append)
        filtered.watch_gathers(None)
        filtered.column("lineitem.l_quantity")
        assert reported == []

    def test_a_frame_nobody_stored_pays_no_callback(self, filtered):
        assert Frame._on_gather is None
        filtered.column("lineitem.l_quantity")
        filtered.mask(np.ones(50, dtype=bool)).column("lineitem.l_quantity")
        assert "_on_gather" not in vars(filtered)

    def test_racing_readers_keep_one_array_and_report_it_once(
        self, filtered, monkeypatch
    ):
        both_gathering = threading.Barrier(2)
        gather = _Source.gather

        def gather_together(source):
            both_gathering.wait(timeout=10)
            return gather(source)

        monkeypatch.setattr(_Source, "gather", gather_together)
        reported, arrays = [], []
        filtered.watch_gathers(reported.append)
        threads = [
            threading.Thread(
                target=lambda: arrays.append(filtered.column("lineitem.l_quantity"))
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert arrays[0] is arrays[1]
        assert reported == [arrays[0].nbytes]
