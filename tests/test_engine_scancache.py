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

A key's value is kept on its second sight (``TestSecondSightAdmission``):
its first keeps a seen-once entry charged its key's bytes, so tests that
warm the cache run a leaf twice.
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
from repro.service import Session

from tests.conftest import make_two_table_db

FAMILIES = ["tpch", "star", "snowflake"]


def key_bytes(key) -> int:
    """A seen-once entry's charge, measured here: the key tuple, its
    nested tuples and every item."""
    if isinstance(key, tuple):
        return sys.getsizeof(key) + sum(key_bytes(part) for part in key)
    return sys.getsizeof(key)


def walk_bytes(cache: ScanCache) -> int:
    """What the cache alone keeps alive, found without its bookkeeping:
    every distinct array, by ``id``, behind a selection vector of a
    stored frame, plus stored RID arrays, plus the keys of entries
    seen once."""
    arrays, keys = {}, 0
    for key, entry in cache._entries.items():
        if entry.value is scancache._SEEN_ONCE:
            keys += key_bytes(key)
            continue
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
    return keys + sum(array.nbytes for array in arrays.values())


def run_battery(plans, database, cache):
    """``[(result frame, counters)]`` of every plan, through ``cache``."""
    out = []
    for _, plan in plans:
        ctx = ExecutionContext(database, scan_cache=cache)
        out.append((plan.execute(ctx), ctx.counters))
    return out


def filtered_scan(threshold: int) -> SeqScan:
    return SeqScan("lineitem", col("lineitem.l_quantity") > threshold)


def kept_scan(cache: ScanCache, database, threshold: int) -> Frame:
    """``filtered_scan(threshold)`` run twice through ``cache``: the
    frame of its second sight, the one the cache keeps."""
    for _ in range(2):
        frame = filtered_scan(threshold).execute(
            ExecutionContext(database, scan_cache=cache)
        )
    return frame


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

        key = ("seqscan", "lineitem", "q>45")
        cache.get_or_compute(key, lambda: np.zeros(1))  # its first sight

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute(key, slow_scan))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1, "followers must wait, not re-materialize"
        assert all(r is results[0] for r in results)
        assert cache.stats() == {
            "hits": 5, "misses": 2, "entries": 1, "seen_once": 0, "bytes": 8,
            "evictions": 0,
        }

    def test_distinct_keys_do_not_serialize(self):
        cache = ScanCache()
        for key in (("a",), ("b",)):  # their first sight
            cache.get_or_compute(key, lambda: np.zeros(1))
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

        # Each key misses twice: on its first sight and on its second.
        stats = cache.stats()
        assert stats["entries"] == 16
        assert stats["misses"] == 32
        assert stats["hits"] == n_threads * iters - 32


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
            for _ in range(2):  # the second battery keeps what repeats
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
        for _ in range(2):  # kept on their second sight, then gathered
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
            for _ in range(2):  # the second run keeps the plan's leaves
                plan.execute(ExecutionContext(database, scan_cache=cache))
                held = cache.stats()["bytes"]
                assert held == walk_bytes(cache)
                latest = next(reversed(cache._entries.values()))
                assert held <= budget + latest.nbytes
        assert cache.stats()["evictions"] > 0

    def test_a_gather_is_charged_once_at_the_cached_frame(self, two_table_db):
        cache = ScanCache()
        frame = kept_scan(cache, two_table_db, 20)
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
        for _ in range(2):  # kept on its second sight
            frame = SeqScan("lineitem").execute(
                ExecutionContext(two_table_db, scan_cache=cache)
            )
        frame.column("lineitem.l_shipdate")
        assert cache.stats()["entries"] == 1
        assert cache.stats()["bytes"] == 0 == walk_bytes(cache)

    def test_an_evicted_frame_stops_reporting(self, two_table_db, monkeypatch):
        monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", 0)
        cache = ScanCache()
        # 30's first sight evicts 20; its second replaces its own
        # seen-once entry, which is no eviction.
        first, second = (
            kept_scan(cache, two_table_db, quantity) for quantity in (20, 30)
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
        frame = kept_scan(cache, two_table_db, 20)
        selection = weakref.ref(frame._sources["lineitem.l_partkey"].sel)
        del frame, cache
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
        for _ in range(2):  # kept on its second sight
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
        # The burst is ("burst",)'s first sight: its leader's seen-once
        # entry evicted "older", and the value went to the followers only.
        assert cache.stats() == {
            "hits": 7, "misses": 3, "entries": 0, "seen_once": 1,
            "bytes": key_bytes(("burst",)), "evictions": 1,
        }


def sighted_run(plan, database, cache):
    """``(frame, counters, rows per operator in walk order, simulated
    seconds)`` of one execution of ``plan`` through ``cache``."""
    rows = {}
    ctx = ExecutionContext(database, scan_cache=cache, operator_rows=rows)
    frame = plan.execute(ctx)
    return (
        frame,
        ctx.counters.as_dict(),
        [rows[op] for op in plan.walk()],
        CostModel().time_from_counters(ctx.counters),
    )


class TestSecondSightAdmission:
    """A key's first sight keeps no value, its second keeps it, and
    its third hits; no sight changes what an execution returns or
    charges."""

    def test_first_sight_keeps_no_array(self, two_table_db):
        cache = ScanCache()
        scan = filtered_scan(20)

        def run():
            return scan.execute(ExecutionContext(two_table_db, scan_cache=cache))

        first = run()
        first.column("lineitem.l_shipdate")  # a gather nobody is charged
        (key,) = cache._entries
        assert cache.stats() == {
            "hits": 0, "misses": 1, "entries": 0, "seen_once": 1,
            "bytes": key_bytes(key), "evictions": 0,
        }
        assert first._on_gather is None
        second = run()
        assert second is not first
        assert cache.stats()["entries"] == 1 and cache.stats()["seen_once"] == 0
        assert cache.stats()["bytes"] == second.num_rows * 8 == walk_bytes(cache)
        assert run() is second
        assert (cache.hits, cache.misses) == (1, 2)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_sight_runs_like_no_cache(self, family, families, planned_trees):
        database = families[family][0]
        for _, plan in planned_trees[family]:
            frame, counters, rows, seconds = sighted_run(plan, database, None)
            cache = ScanCache()
            for sight in (1, 2, 3):
                hits_before = cache.hits
                got, got_counters, got_rows, got_seconds = sighted_run(
                    plan, database, cache
                )
                assert got.column_names == frame.column_names
                for name in frame.column_names:
                    assert got.column(name).dtype == frame.column(name).dtype
                    assert np.array_equal(got.column(name), frame.column(name))
                assert got_counters == counters, sight
                assert got_rows == rows, sight
                assert got_seconds == seconds, sight
                if sight == 1:
                    assert cache.stats()["entries"] == 0
            assert cache.hits > hits_before  # the third sight hit

    def test_threads_on_a_first_sight_key_compute_once(self):
        cache = ScanCache()
        n_threads, calls, results = 6, [], []
        barrier = threading.Barrier(n_threads)

        def slow_scan():
            calls.append(1)
            time.sleep(0.05)
            return np.zeros(1)

        def worker():
            barrier.wait(timeout=30)
            results.append(cache.get_or_compute(("first",), slow_scan))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(calls) == 1 and len(results) == n_threads
        assert all(r is results[0] for r in results)
        assert cache.stats() == {
            "hits": n_threads - 1, "misses": 1, "entries": 0, "seen_once": 1,
            "bytes": key_bytes(("first",)), "evictions": 0,
        }

    def test_a_stream_of_distinct_keys_stays_within_budget(self, monkeypatch):
        budget = 2 << 10
        monkeypatch.setattr(scancache, "SCAN_CACHE_BYTES", budget)
        cache = ScanCache()
        for i in range(500):
            cache.get_or_compute(("stream", i), lambda: np.zeros(1024))
            held = cache.stats()["bytes"]
            assert held <= budget
            assert held == walk_bytes(cache)
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["evictions"] > 0
        assert stats["seen_once"] == len(cache._entries) > 1

    def test_never_repeated_statements_end_holding_no_arrays(self, tpch_db):
        session = Session(tpch_db, sample_size=200)
        for i in range(200):
            session.execute(
                "SELECT COUNT(*) FROM lineitem "
                f"WHERE lineitem.l_shipdate >= {727300 + 10 * i}"
            )
        stats = session._scan_cache.stats()
        assert stats["misses"] >= 200 and stats["hits"] == 0
        assert stats["entries"] == 0 and stats["evictions"] == 0
        assert stats["bytes"] == walk_bytes(session._scan_cache)
        assert stats["bytes"] == sum(
            key_bytes(key) for key in session._scan_cache._entries
        )
        session.close()
