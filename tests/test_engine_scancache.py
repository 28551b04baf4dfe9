"""Concurrency and memory-budget tests for the shared scan cache.

Regression suite for the serving-layer hardening: the pre-fix
``ScanCache`` used unguarded dict writes and counters, so two executor
threads scanning the same leaf both materialized it (violating
compute-once), hit/miss counts drifted under contention, and two
databases could race the first-seen pin. These tests fail on that
code.

The byte budget (``scancache.SCAN_CACHE_BYTES``) is checked three ways:
eviction changes nothing but memory (every plan of the TPC-H / star /
snowflake battery returns the same frame and charges the same counters
with no cache, the default budget, 64 KiB and 0); the running total
equals a walk over the entries that shares no code with the cache,
gathers memoized after insertion included; and neither survives less
under eight threads evicting on every insert.
"""

import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.cost import CostModel
from repro.engine import ExecutionContext, ScanCache, SeqScan, scancache
from repro.errors import ExecutionError
from repro.expressions import Frame, col

from tests.conftest import make_two_table_db

FAMILIES = ["tpch", "star", "snowflake"]


def walk_bytes(cache: ScanCache) -> int:
    """What the cache alone keeps alive, found without its bookkeeping:
    every distinct array, by ``id``, behind a selection vector of a
    stored frame, plus stored RID arrays."""
    arrays = {}
    for entry in cache._entries.values():
        value = entry.value[-1] if isinstance(entry.value, tuple) else entry.value
        if isinstance(value, np.ndarray):
            arrays[id(value)] = value
        elif isinstance(value, Frame):
            for name, source in value._sources.items():
                if source.sel is None:
                    continue
                arrays[id(source.sel)] = source.sel
                if name in value._cache:
                    arrays[id(value._cache[name])] = value._cache[name]
    return sum(array.nbytes for array in arrays.values())


def run_battery(plans, database, cache):
    """``[(result frame, counters)]`` of every plan, through ``cache``."""
    out = []
    for _, plan in plans:
        ctx = ExecutionContext(database, scan_cache=cache)
        out.append((plan.execute(ctx), ctx.counters))
    return out


def filtered_scan(threshold: int) -> SeqScan:
    return SeqScan("lineitem", col("lineitem.l_quantity") > threshold)


class TestComputeOnce:
    def test_concurrent_same_key_materializes_once(self):
        """Two threads scanning the same leaf must share one compute."""
        cache = ScanCache()
        calls = []
        barrier = threading.Barrier(6)
        results = []

        def slow_scan():
            calls.append(1)
            time.sleep(0.05)  # wide race window: pre-fix, all 6 compute
            return np.zeros(1)

        def worker():
            barrier.wait()
            results.append(
                cache.get_or_compute(("seqscan", "lineitem", "q>45"), slow_scan)
            )

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1, "followers must wait, not re-materialize"
        assert all(r is results[0] for r in results)
        assert cache.stats() == {
            "hits": 5, "misses": 1, "entries": 1, "bytes": 8, "evictions": 0,
        }

    def test_distinct_keys_do_not_serialize(self):
        cache = ScanCache()
        started = threading.Barrier(2)
        release = threading.Event()

        def blocking_scan():
            started.wait(timeout=5)
            release.wait(timeout=5)
            return np.zeros(1)

        slow = threading.Thread(
            target=lambda: cache.get_or_compute(("a",), blocking_scan)
        )
        slow.start()
        started.wait(timeout=5)
        # While ("a",) is mid-materialization, another key must not block.
        fast = np.ones(1)
        assert cache.get_or_compute(("b",), lambda: fast) is fast
        release.set()
        slow.join(timeout=5)
        assert not slow.is_alive()
        assert len(cache) == 2

    def test_leader_failure_propagates_and_followers_retry(self):
        cache = ScanCache()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("scan failed")
            return np.ones(1)

        with pytest.raises(RuntimeError):
            cache.get_or_compute(("k",), flaky)
        assert cache.get_or_compute(("k",), flaky)[0] == 1
        assert len(attempts) == 2

    def test_unsizable_value_is_an_error_and_is_not_cached(self):
        cache = ScanCache()
        for unsizable in ("rows", 3, (np.zeros(1), 3), ()):
            with pytest.raises(ExecutionError, match="cannot size"):
                cache.get_or_compute(("k",), lambda: unsizable)
        assert cache.stats()["entries"] == 0
        # The failed leader left nothing in flight behind it.
        assert cache.get_or_compute(("k",), lambda: np.ones(1))[0] == 1


class TestCounterAccuracy:
    def test_hit_miss_counters_exact_under_contention(self):
        cache = ScanCache()
        n_threads, iters = 4, 2000
        barrier = threading.Barrier(n_threads)

        def worker(idx):
            barrier.wait()
            for i in range(iters):
                cache.get_or_compute(("leaf", i % 16), lambda: np.arange(i))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(previous)

        stats = cache.stats()
        assert stats["entries"] == 16
        assert stats["misses"] == 16
        assert stats["hits"] == n_threads * iters - 16


class TestDatabasePinning:
    def test_first_database_pins_and_others_bypass(self):
        db_a = make_two_table_db()
        db_b = make_two_table_db()
        cache = ScanCache()
        assert cache.valid_for(db_a)
        assert not cache.valid_for(db_b)
        assert cache.valid_for(db_a)

    def test_pin_race_admits_exactly_one_database(self):
        """Two databases racing the first-touch pin: one wins, ever."""
        db_a = make_two_table_db()
        db_b = make_two_table_db()
        for _ in range(50):
            cache = ScanCache()
            barrier = threading.Barrier(2)
            outcomes = {}

            def pin(tag, db):
                barrier.wait()
                outcomes[tag] = cache.valid_for(db)

            threads = [
                threading.Thread(target=pin, args=("a", db_a)),
                threading.Thread(target=pin, args=("b", db_b)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(outcomes.values()) == [False, True], (
                "exactly one database may win the pin"
            )
            # The winner's claim must be stable afterwards.
            winner = db_a if outcomes["a"] else db_b
            loser = db_b if outcomes["a"] else db_a
            assert cache.valid_for(winner)
            assert not cache.valid_for(loser)

    def test_clear_unpins(self):
        db_a = make_two_table_db()
        db_b = make_two_table_db()
        cache = ScanCache()
        assert cache.valid_for(db_a)
        cache.clear()
        assert cache.valid_for(db_b)


class TestEvictionChangesNothingButMemory:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_frames_counters_and_time_equal_at_every_budget(
        self, family, families, planned_trees, monkeypatch
    ):
        database, plans = families[family][0], planned_trees[family]
        cost_model = CostModel()
        expected = run_battery(plans, database, None)
        caches = {}
        for budget in (scancache.SCAN_CACHE_BYTES, 64 << 10, 0):
            monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", budget)
            cache = caches[budget] = ScanCache()
            for (frame, counters), (want, want_counters) in zip(
                run_battery(plans, database, cache), expected
            ):
                assert frame.column_names == want.column_names
                for name in want.column_names:
                    got, ref = frame.column(name), want.column(name)
                    assert got.dtype == ref.dtype
                    assert np.array_equal(got, ref)
                assert counters.as_dict() == want_counters.as_dict()
                assert cost_model.time_from_counters(
                    counters
                ) == cost_model.time_from_counters(want_counters)
        default, small, none = (cache.stats() for cache in caches.values())
        assert default["evictions"] == 0
        for squeezed in (small, none):
            assert squeezed["evictions"] > 0
            assert squeezed["hits"] + squeezed["misses"] == (
                default["hits"] + default["misses"]
            )
            assert squeezed["entries"] < default["entries"]
        # With no budget only the entry used last (and ones that weigh
        # nothing) can stay.
        assert none["bytes"] == walk_bytes(caches[0])
        assert none["entries"] <= 2


class TestAccountingIsExact:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bytes_equal_the_walk_after_the_battery(
        self, family, families, planned_trees
    ):
        cache = ScanCache()
        run_battery(planned_trees[family], families[family][0], cache)
        stats = cache.stats()
        assert stats["evictions"] == 0
        assert stats["bytes"] == walk_bytes(cache) > 0
        cache.clear()
        assert cache.stats()["bytes"] == 0 and len(cache) == 0
        assert walk_bytes(cache) == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bytes_exceed_the_budget_by_at_most_the_latest_entry(
        self, family, families, planned_trees, monkeypatch
    ):
        budget = 16 << 10
        monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", budget)
        database, cache = families[family][0], ScanCache()
        for _, plan in planned_trees[family]:
            plan.execute(ExecutionContext(database, scan_cache=cache))
            held = cache.stats()["bytes"]
            assert held == walk_bytes(cache)
            latest = next(reversed(cache._entries.values()))
            assert held <= budget + latest.nbytes
        assert cache.stats()["evictions"] > 0

    def test_a_gather_is_charged_once_at_the_cached_frame(self, two_table_db):
        cache = ScanCache()
        ctx = ExecutionContext(two_table_db, scan_cache=cache)
        frame = filtered_scan(20).execute(ctx)
        # The predicate read l_quantity from the whole table's frame;
        # the filtered one so far holds its selection vector alone.
        selection = cache.stats()["bytes"]
        assert selection == frame.num_rows * 8 == walk_bytes(cache)

        dates = frame.column("lineitem.l_shipdate")
        assert cache.stats()["bytes"] == selection + dates.nbytes
        assert frame.column("lineitem.l_shipdate") is dates
        assert cache.stats()["bytes"] == selection + dates.nbytes

        keep = dates > np.median(dates)
        for derived in (
            frame.mask(keep),
            frame.take(np.arange(5)),
            frame.select(["lineitem.l_partkey"]),
            frame.take(np.arange(5)).merged_with(Frame({"x.y": np.arange(5)})),
        ):
            derived.column("lineitem.l_partkey")
        assert cache.stats()["bytes"] == selection + dates.nbytes
        assert cache.stats()["bytes"] == walk_bytes(cache)

    def test_an_unfiltered_scan_weighs_nothing(self, two_table_db):
        cache = ScanCache()
        ctx = ExecutionContext(two_table_db, scan_cache=cache)
        frame = SeqScan("lineitem").execute(ctx)
        frame.column("lineitem.l_shipdate")
        assert cache.stats()["entries"] == 1
        assert cache.stats()["bytes"] == 0 == walk_bytes(cache)

    def test_an_evicted_frame_stops_reporting(self, two_table_db, monkeypatch):
        monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", 0)
        cache = ScanCache()
        first, second = (
            filtered_scan(quantity).execute(
                ExecutionContext(two_table_db, scan_cache=cache)
            )
            for quantity in (20, 30)
        )
        assert cache.stats()["evictions"] == 1
        assert first._on_gather is None and second._on_gather is not None
        first.column("lineitem.l_shipdate")  # still valid, nobody's
        assert cache.stats()["bytes"] == second.num_rows * 8 == walk_bytes(cache)

    def test_no_lookup_measures_an_entry_again(
        self, families, planned_trees, monkeypatch
    ):
        weighed = []

        def spy(value, weigh=scancache._weigh):
            weighed.append(1)
            return weigh(value)

        monkeypatch.setattr(scancache, "_weigh", spy)
        cache = ScanCache()
        run_battery(planned_trees["tpch"], families["tpch"][0], cache)
        stats = cache.stats()
        assert stats["hits"] > stats["misses"]
        assert len(weighed) == stats["misses"]

    def test_a_dropped_cache_frees_its_arrays_without_the_collector(
        self, two_table_db
    ):
        cache = ScanCache()
        ctx = ExecutionContext(two_table_db, scan_cache=cache)
        frame = filtered_scan(20).execute(ctx)
        selection = weakref.ref(frame._sources["lineitem.l_partkey"].sel)
        del frame, cache, ctx
        assert selection() is None


class TestBudgetUnderContention:
    def test_eight_threads_evicting_on_every_insert(self, two_table_db, monkeypatch):
        # About one filtered scan with one gathered column: an insert
        # evicts, yet an entry lives long enough to be hit and grown by
        # several threads at once.
        monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", 32 << 10)
        cache = ScanCache()
        n_threads, iters = 8, 150
        barrier = threading.Barrier(n_threads)
        errors, negative = [], []

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for i in range(iters):
                    # Shared keys (every thread) and distinct ones (its own).
                    threshold = i % 5 if i % 2 else 5 + idx
                    frame = filtered_scan(threshold).execute(
                        ExecutionContext(two_table_db, scan_cache=cache)
                    )
                    assert frame is not None
                    frame.column("lineitem.l_shipdate")
                    if cache.stats()["bytes"] < 0:
                        negative.append(i)
            except BaseException as exc:  # surfaced below, on the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)

        assert not any(t.is_alive() for t in threads)
        assert not errors and not negative
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == n_threads * iters
        assert stats["evictions"] > 0
        assert stats["bytes"] == walk_bytes(cache)

    def test_same_key_burst_materializes_once_and_followers_get_the_value(
        self, monkeypatch
    ):
        """The leader's eviction pass runs before its followers wake; what
        they receive is the value, whatever the cache kept."""
        monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", 0)
        cache = ScanCache()
        cache.get_or_compute(("older",), lambda: np.zeros(4))
        calls, results = [], []
        barrier = threading.Barrier(8)

        def slow_scan():
            calls.append(1)
            time.sleep(0.05)
            return np.ones(16)

        def worker():
            barrier.wait(timeout=30)
            results.append(cache.get_or_compute(("burst",), slow_scan))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and len(results) == 8
        assert all(r is results[0] and r is not None for r in results)
        assert cache.stats() == {
            "hits": 7, "misses": 2, "entries": 1, "bytes": 128, "evictions": 1,
        }
