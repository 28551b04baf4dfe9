"""Tests for supporting infrastructure: rng helpers, candidate pruning."""

import numpy as np
import pytest

from functools import partial

from repro.engine import SeqScan
from repro.optimizer.candidates import PricedPlans, keep_best
from repro.random_state import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        assert ensure_rng(5).integers(0, 100) == ensure_rng(5).integers(0, 100)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_streams_independent_and_reproducible(self):
        a = spawn_rngs(7, 3)
        b = spawn_rngs(7, 3)
        for left, right in zip(a, b):
            assert left.integers(0, 1 << 30) == right.integers(0, 1 << 30)
        fresh = spawn_rngs(7, 3)
        values = [g.integers(0, 1 << 30) for g in fresh]
        assert len(set(values)) == 3

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(3), 2)
        assert len(children) == 2


class TestKeepBest:
    """``keep_best(costs, orders)`` files a position per order slot."""

    def test_cheapest_kept_per_order(self):
        best = keep_best([5.0, 3.0, 9.0], ["t.a", "t.a", "t.b"])
        assert best["t.a"] == 1
        assert best["t.b"] == 2

    def test_global_best_in_none_slot(self):
        best = keep_best([5.0, 2.0], ["t.a", "t.b"])
        assert best[None] == 1

    def test_unordered_candidates(self):
        best = keep_best([5.0, 1.0], [None, None])
        assert best[None] == 1
        assert set(best) == {None}

    def test_empty(self):
        assert keep_best([], []) == {}

    def test_annotated_sets_estimates(self):
        """A priced plan's tree carries its estimates when it is built."""
        plans = PricedPlans.of(
            frozenset(["t"]), 1.0, [4.0], [None], [partial(SeqScan, "t")]
        )
        operator = plans.tree(0, None)
        assert operator.est_cost == 4.0
        assert operator.est_rows == 1.0
