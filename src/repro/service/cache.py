"""A bounded, lock-striped LRU cache with per-key singleflight.

The session layer keys plans on ``(query fingerprint, estimator
config, statistics version)``, so entries for stale statistics age out
of the LRU naturally — a version bump changes the key, misses, and
re-plans; the old version's entries are never served again and are
evicted as fresh traffic displaces them.

Concurrency model: the key space is partitioned across N stripes, each
guarded by its own lock, so sessions serving many threads don't
serialize on one global mutex. Within a stripe, concurrent requests
for the *same* missing key are collapsed ("singleflight"): the first
caller computes the value while followers wait on an event and share
the result, so an expensive planning pass runs exactly once no matter
how many threads ask for it simultaneously.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from repro.errors import ReproError

V = TypeVar("V")


class PlanCacheError(ReproError):
    """The cache was configured or used inconsistently."""


class _InFlight:
    """One in-progress computation that followers can wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class _Stripe:
    """One shard of the key space: an LRU dict plus its lock.

    Hit/miss/eviction counters live *on the stripe* and are mutated
    only under the stripe's own lock — the cache-wide totals are
    aggregated at read time. A hit therefore touches exactly one lock
    (the stripe's, which it already holds), never a process-wide stats
    mutex that would serialize otherwise-uncontended stripes.
    """

    __slots__ = ("lock", "entries", "inflight", "capacity",
                 "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict = OrderedDict()
        self.inflight: dict = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class PlanCache:
    """Bounded LRU over hashable keys, striped for concurrency.

    Parameters
    ----------
    capacity:
        Total entry bound across all stripes. ``0`` disables caching:
        every :meth:`get_or_create` computes (used by benchmarks to
        measure the uncached baseline through the same code path).
    stripes:
        Number of independently locked shards. Each stripe holds at
        most ``ceil(capacity / stripes)`` entries, so the bound is
        exact for ``stripes=1`` and within a stripe's rounding above.
    """

    def __init__(self, capacity: int = 256, stripes: int = 8) -> None:
        if capacity < 0:
            raise PlanCacheError(f"capacity must be >= 0, got {capacity}")
        if stripes < 1:
            raise PlanCacheError(f"stripes must be >= 1, got {stripes}")
        self.capacity = capacity
        stripes = min(stripes, capacity) or 1
        per_stripe = -(-capacity // stripes) if capacity else 0
        self._stripes = [_Stripe(per_stripe) for _ in range(stripes)]

    # ------------------------------------------------------------------
    def _stripe_for(self, key: Hashable) -> _Stripe:
        return self._stripes[hash(key) % len(self._stripes)]

    def get_or_create(
        self, key: Hashable, factory: Callable[[], V]
    ) -> tuple[V, bool]:
        """Return ``(value, was_cached)``, computing on first request.

        ``factory`` runs at most once per key per generation: losers of
        the insertion race wait for the winner's result (and re-raise
        the winner's exception, without caching it). With ``capacity
        0`` the factory always runs and nothing is retained.
        """
        stripe = self._stripe_for(key)
        if self.capacity == 0:
            with stripe.lock:
                stripe.misses += 1
            return factory(), False

        while True:
            with stripe.lock:
                if key in stripe.entries:
                    stripe.entries.move_to_end(key)
                    stripe.hits += 1
                    return stripe.entries[key], True
                flight = stripe.inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    stripe.inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if leader:
                break
            flight.event.wait()
            if flight.error is None:
                with stripe.lock:
                    stripe.hits += 1
                return flight.value, True
            # The leader failed; loop and retry as a fresh leader.
            with stripe.lock:
                if stripe.inflight.get(key) is flight:
                    del stripe.inflight[key]

        try:
            value = factory()
        except BaseException as exc:
            with stripe.lock:
                flight.error = exc
                if stripe.inflight.get(key) is flight:
                    del stripe.inflight[key]
            flight.event.set()
            raise
        with stripe.lock:
            stripe.entries[key] = value
            stripe.entries.move_to_end(key)
            while len(stripe.entries) > stripe.capacity:
                stripe.entries.popitem(last=False)
                stripe.evictions += 1
            if stripe.inflight.get(key) is flight:
                del stripe.inflight[key]
            stripe.misses += 1
        flight.value = value
        flight.event.set()
        return value, False

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        """Peek without computing; ``None`` on miss (not counted)."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            if key in stripe.entries:
                stripe.entries.move_to_end(key)
                return stripe.entries[key]
        return None

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) an entry, evicting LRU past capacity.

        A ``put`` also supersedes any in-flight :meth:`get_or_create`
        for the same key: followers waiting on the leader's factory
        are released immediately with this value instead of blocking
        on a computation whose result is already cached.
        """
        if self.capacity == 0:
            return
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.entries[key] = value
            stripe.entries.move_to_end(key)
            while len(stripe.entries) > stripe.capacity:
                stripe.entries.popitem(last=False)
                stripe.evictions += 1
            flight = stripe.inflight.pop(key, None)
        if flight is not None:
            flight.value = value
            flight.event.set()

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        for stripe in self._stripes:
            with stripe.lock:
                stripe.entries.clear()

    def values(self) -> list:
        """A snapshot of the cached values, stripe by stripe."""
        held = []
        for stripe in self._stripes:
            with stripe.lock:
                held.extend(stripe.entries.values())
        return held

    def __len__(self) -> int:
        return sum(len(stripe.entries) for stripe in self._stripes)

    def __contains__(self, key: Hashable) -> bool:
        stripe = self._stripe_for(key)
        with stripe.lock:
            return key in stripe.entries

    def stats(self) -> dict:
        """Counters plus occupancy, JSON-ready.

        Totals are aggregated from the per-stripe counters at read
        time; each stripe's triple is read under its own lock, so the
        totals never include a torn per-stripe update (a cross-stripe
        snapshot taken mid-traffic is monotonic, not frozen).
        """
        hits = misses = evictions = 0
        for stripe in self._stripes:
            with stripe.lock:
                hits += stripe.hits
                misses += stripe.misses
                evictions += stripe.evictions
        total = hits + misses
        return {
            "capacity": self.capacity,
            "stripes": len(self._stripes),
            "size": len(self),
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": hits / total if total else 0.0,
        }
