"""Shared scan cache: memoized base-table access paths.

A session executes many plans over the same database — its execution
memo already deduplicates *identical plans* of one statement, but two
different plans for one statement still share their leaves (the
same ``SeqScan(lineitem, q > 45)`` appears under both the stable and
the risky join order). A :class:`ScanCache` memoizes those leaf
results so each distinct (operator kind, table, predicate) combination
filters the base data once per session, not once per plan.

Correctness rules:

* **Unit of account.** The simulation's clock is :class:`WorkCounters`,
  not wall time, so a cache hit must charge *exactly* the counters a
  cold execution would. Operators therefore keep counter arithmetic
  outside the memoized computation, replaying it from small cached
  aux values (RID counts, entry counts) on every hit. Experiment
  records are bit-identical with the cache on or off.
* **Staleness.** A cache is pinned to the first :class:`Database`
  object it sees; table data in this engine is immutable once built,
  so object identity is the version. An :class:`ExecutionContext`
  carrying a cache pinned to a *different* database silently bypasses
  it rather than serving wrong rows.
* **Immutability.** Cached values include frames; frames are immutable
  by contract and share (never mutate) base arrays, so
  handing the same frame to many plan executions is safe. Callers that
  re-mask or take from a cached frame get fresh frames.
* **Concurrency.** One cache may be shared by many executor threads
  (the serving layer runs each operation on the thread that called
  ``serve``, inside one of its ``worker_threads`` slots, so concurrent
  plan executions meet in a session-owned cache). A per-cache mutex guards the entry
  dict, the database pin, and the hit/miss counters; misses for the
  *same* key are collapsed singleflight-style — the first thread
  materializes the scan while followers wait on an event and share the
  result, so one leaf is never filtered twice just because two plans
  reached it simultaneously. ``compute`` runs outside the mutex, so
  distinct keys never serialize on each other's materialization.

* **Admission.** A value is kept on its key's second sight, the rule
  the session's execution memo and shape store follow. The first sight
  computes and weighs the value (an unsizable one still raises),
  returns it and keeps only a value-less *seen once* entry, charged its
  key's bytes (:func:`_key_nbytes`) in the same recency order and
  budget as every other entry. The second sight computes again and
  keeps the value; later sights hit. A never-repeated statement's
  filtered leaves therefore hold nothing once it has run: on
  ``plan_cold`` 4 397 of 4 475 keys (seed 7, 20 s) were never asked
  for again, yet held 69 MiB under first-sight admission.

* **Memory.** The cache keeps at most :data:`SCAN_CACHE_BYTES` of
  arrays that only it keeps alive, plus its seen-once keys: entries sit
  in recency order with a running byte total, and whenever the total
  passes the budget the least recently used entries are dropped until
  it fits. *Counted* is what is reachable only through the entry — the
  cached frame's distinct selection vectors, the gathers memoized
  through one (:meth:`Frame.owned_nbytes`), the RID array of a
  ``star-semi`` entry, and a seen-once entry's key; an unfiltered scan
  aliases the table's own columns and weighs nothing. Most of a kept
  frame's weight arrives *after* it is stored (the join and the
  aggregate above a scan read their columns from the cached frame,
  which memoizes them: 142 of the 245 MiB ``exec_scale`` retained with
  no budget and first-sight admission), so an entry is measured once,
  when its value is kept, and then charged on growth: the cache
  watches the frame it stores (:meth:`Frame.watch_gathers`) and is
  told each newly memoized array's size. No lookup re-measures
  anything; a hit is one recency move. Eviction only drops the cache's
  reference — a frame already handed out stays valid, and a would-be
  hit that became a miss replays the same counters every miss does.
  The entry used last is never the victim, so one entry larger than
  the whole budget is served and kept until the next insertion
  displaces it. A value the cache cannot size is an error, not zero.

Keys are plain tuples built by the operators from table names and
``expr_key`` predicate signatures.
"""

from __future__ import annotations

import sys
import threading
import weakref
from collections import OrderedDict
from functools import partial
from typing import Callable

import numpy as np

from repro.catalog import Database
from repro.errors import ExecutionError
from repro.expressions import Frame

#: Bytes of selection vectors, memoized gathers, RID arrays and
#: seen-once keys one cache may keep alive. A constant, not an option:
#: DESIGN §13 has the working sets it was chosen against.
SCAN_CACHE_BYTES = 64 << 20

#: The value a key seen once holds: nothing (see *Admission*).
_SEEN_ONCE = object()


def _key_nbytes(key: object) -> int:
    """What a seen-once entry is charged: ``key``'s own bytes, its
    nested tuples' and their items' included."""
    if isinstance(key, tuple):
        return sys.getsizeof(key) + sum(_key_nbytes(part) for part in key)
    return sys.getsizeof(key)


def _weigh(value: object) -> tuple[int, Frame | None]:
    """``(bytes reachable only through value, the frame that may grow)``
    for the shapes operators store: a frame, a RID array, or a tuple of
    replayed counts ending in a frame."""
    if (
        isinstance(value, tuple)
        and value
        and all(isinstance(count, int) for count in value[:-1])
    ):
        value = value[-1]
    if isinstance(value, Frame):
        return value.owned_nbytes(), value
    if isinstance(value, np.ndarray):
        return value.nbytes, None
    raise ExecutionError(
        f"scan cache cannot size a {type(value).__name__}; it stores frames, "
        "RID arrays and (counts..., frame) tuples"
    )


class _Entry:
    """One cached value (or :data:`_SEEN_ONCE`) and the bytes charged
    for it so far."""

    __slots__ = ("value", "frame", "nbytes")

    def __init__(self, value: object, frame: Frame | None, nbytes: int) -> None:
        self.value = value
        self.frame = frame
        self.nbytes = nbytes


def _charge(cache_ref, key: tuple, frame_id: int, nbytes: int) -> None:
    """A cached frame memoized ``nbytes`` more (the frame calls this).

    Holds its cache weakly: a strong reference would close the cycle
    cache → entry → frame → callback, and a cache dropped without
    :meth:`ScanCache.clear` would keep its arrays until the collector
    ran. A frame whose entry was evicted, or replaced under the same
    key by a recomputed one, is no longer the cache's to pay for.
    """
    cache = cache_ref()
    if cache is None:
        return
    with cache._lock:
        entry = cache._entries.get(key)
        if entry is not None and id(entry.frame) == frame_id:
            entry.nbytes += nbytes
            cache._bytes += nbytes
            cache._evict()


class _InFlightScan:
    """One in-progress leaf materialization followers can wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None


class ScanCache:
    """Memo table for base-table access paths, pinned to one database
    and bounded by :data:`SCAN_CACHE_BYTES`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._database: Database | None = None
        #: Least recently used first.
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._inflight: dict[tuple, _InFlightScan] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def valid_for(self, database: Database) -> bool:
        """Whether this cache may serve results for ``database``.

        The first database seen pins the cache; any other database
        object (even an equal-content rebuild) invalidates it for that
        context, because statistics refreshes and chaos faults rebuild
        the Database object when data changes. The check-and-pin is
        atomic: two threads racing with *different* databases can never
        both pin (and then cross-pollinate) one cache. Once pinned the
        answer is one attribute read — the pin changes only in
        :meth:`clear` — so a scan takes the lock once, for its lookup.
        """
        pinned = self._database
        if pinned is None:
            with self._lock:
                if self._database is None:
                    self._database = database
                pinned = self._database
        return pinned is database

    def get_or_compute(self, key: tuple, compute: Callable[[], object]) -> object:
        """Return the memoized value for ``key``, computing it on miss.

        A key's first miss keeps only that it was seen; its second keeps
        the value (see *Admission*). ``compute`` runs at most once per
        miss: the first thread to miss becomes the leader and
        materializes outside the lock, followers wait and share the
        leader's result (counted as hits — they did no scan work). A
        leader failure is propagated to the leader and releases
        followers to retry as fresh leaders, so an exception is never
        cached.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry.value is not _SEEN_ONCE:
                    self._hits += 1
                    self._entries.move_to_end(key)
                    return entry.value
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlightScan()
                    self._inflight[key] = flight
                    leader = True
                    keep = entry is not None
                else:
                    leader = False
            if leader:
                break
            flight.event.wait()
            if flight.error is None:
                with self._lock:
                    self._hits += 1
                return flight.value
            # The leader failed; loop and retry as a fresh leader.
            with self._lock:
                if self._inflight.get(key) is flight:
                    del self._inflight[key]

        try:
            value = compute()
            nbytes, frame = _weigh(value)
        except BaseException as exc:
            with self._lock:
                flight.error = exc
                if self._inflight.get(key) is flight:
                    del self._inflight[key]
            flight.event.set()
            raise
        if keep:
            if frame is not None:
                # Nobody else holds the frame yet, so nothing it memoizes
                # can fall between the measurement above and this.
                frame.watch_gathers(
                    partial(_charge, weakref.ref(self), key, id(frame))
                )
            entry = _Entry(value, frame, nbytes)
        else:
            entry = _Entry(_SEEN_ONCE, None, _key_nbytes(key))
        with self._lock:
            self._misses += 1
            seen = self._entries.pop(key, None)
            if seen is not None:
                self._release(seen)
            self._entries[key] = entry
            self._bytes += entry.nbytes
            self._evict()
            if self._inflight.get(key) is flight:
                del self._inflight[key]
        flight.value = value
        flight.event.set()
        return value

    def _evict(self) -> None:
        """Drop least recently used entries until the budget holds,
        sparing the most recent one. Caller holds the lock."""
        while self._bytes > SCAN_CACHE_BYTES and len(self._entries) > 1:
            _, entry = self._entries.popitem(last=False)
            self._release(entry)
            self._evictions += 1

    def _release(self, entry: _Entry) -> None:
        self._bytes -= entry.nbytes
        if entry.frame is not None:
            entry.frame.watch_gathers(None)

    def __len__(self) -> int:
        """Keys whose value is kept (seen-once keys are not)."""
        with self._lock:
            return len(self._entries) - self._count_seen_once()

    def _count_seen_once(self) -> int:
        return sum(entry.value is _SEEN_ONCE for entry in self._entries.values())

    def clear(self) -> None:
        """Unpin and drop every entry; the counters survive."""
        with self._lock:
            self._database = None
            for entry in self._entries.values():
                self._release(entry)
            self._entries.clear()

    def stats(self) -> dict:
        """Occupancy and hit / miss / eviction counts for reporting:
        ``entries`` keys whose value is kept, ``seen_once`` keys seen
        once, and the ``bytes`` charged for both."""
        with self._lock:
            seen_once = self._count_seen_once()
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._entries) - seen_once,
                "seen_once": seen_once,
                "bytes": self._bytes,
                "evictions": self._evictions,
            }
