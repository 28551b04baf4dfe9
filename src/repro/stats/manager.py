"""Statistics manager: the ``UPDATE STATISTICS`` analogue.

Owns every precomputed statistic for a database — histograms for the
AVI baseline, and single-table samples plus join synopses for the
robust estimator — and answers lookup queries from the estimators.
Individual statistics can be dropped to exercise the paper's
"no statistics available" fallback paths (Section 3.5).

A rebuild re-draws samples and synopses, because their quality depends
on the random choice of tuples (Section 6.2). Histograms depend on the
table data alone, and tables are immutable, so each one is built once
per process and shared by every manager over the same table.
"""

from __future__ import annotations

import operator
import threading
import weakref
from typing import Iterable

from repro.catalog import ColumnType, Database, Table
from repro.errors import CatalogError, StatisticsError
from repro.random_state import RngLike, derive_seed, spawn_rngs
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.join_synopsis import JoinSynopsis, build_join_synopsis
from repro.stats.sample import TableSample

# Process-wide statistics epoch. Every statistics state change — a
# rebuild, a drop, or restoring a persisted archive — draws its
# ``version`` from this one counter, so two different statistics
# states can never carry the same version, even across managers.
# Plan caches and estimator memos key on the version; without a shared
# allocator, two archives loaded into one session would both sit at
# the same counter value and silently share cache entries.
_EPOCH_LOCK = threading.Lock()
_EPOCH = 0


def next_statistics_epoch(floor: int = 0) -> int:
    """Allocate the next process-unique statistics version.

    ``floor`` keeps the counter monotonic past an externally persisted
    epoch (e.g. the version recorded in a statistics archive).
    """
    global _EPOCH
    with _EPOCH_LOCK:
        _EPOCH = max(_EPOCH, floor) + 1
        return _EPOCH


# Every histogram built in this process, by table and then by (column,
# bucket count). Tables never change, so no entry needs invalidating;
# the weak key frees a table's histograms with the table.
_HISTOGRAM_LOCK = threading.Lock()
_HISTOGRAMS: weakref.WeakKeyDictionary[
    Table, dict[tuple[str, int], EquiDepthHistogram]
] = weakref.WeakKeyDictionary()


def _shared_histogram(table: Table, column: str, buckets: int) -> EquiDepthHistogram:
    """The histogram on ``table.column``, built on the first request."""
    with _HISTOGRAM_LOCK:
        built = _HISTOGRAMS.setdefault(table, {})
        histogram = built.get((column, buckets))
        if histogram is None:
            histogram = built[(column, buckets)] = EquiDepthHistogram(
                table.column(column), buckets
            )
        return histogram


class StatisticsManager:
    """Builds and serves statistics for one database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._samples: dict[str, TableSample] = {}
        self._synopses: dict[str, JoinSynopsis] = {}
        self._histograms: dict[tuple[str, str], EquiDepthHistogram] = {}
        self.sample_size: int | None = None
        #: Content-deterministic identity of the last build (``None``
        #: until one happens); see :meth:`sampling_token`.
        self._sampling_token: int | None = None
        #: Statistics version: 0 before any build, then a
        #: process-unique epoch stamped on every change (rebuild, drop,
        #: or archive load). Estimators and the session plan cache key
        #: their caches on it, so no two statistics states — including
        #: states loaded from different archives — can ever share a
        #: cache entry.
        self.version: int = 0

    def bump_version(self, floor: int = 0) -> int:
        """Stamp (and return) a fresh process-unique version."""
        self.version = next_statistics_epoch(max(floor, self.version))
        return self.version

    def sampling_token(self) -> int:
        """A deterministic identity for seeding posterior sampling.

        The statistics ``version`` is allocated from a process-wide
        counter, so two workers rebuilding *identical* statistics carry
        different versions — seeding posterior draws from it would make
        penalty-selected plans depend on the worker count. When the
        build seed was an integer (the reproducible path every harness
        uses), the token is derived purely from build content
        ``(seed, sample_size)``, so any process rebuilding the same
        statistics draws the same samples. Seeds without stable content
        identity (generators, OS entropy) fall back to the version.
        """
        if self._sampling_token is not None:
            return self._sampling_token
        return self.version

    # ------------------------------------------------------------------
    # Offline precomputation phase
    # ------------------------------------------------------------------
    def update_statistics(
        self,
        sample_size: int = 500,
        histogram_buckets: int = 250,
        seed: RngLike = None,
        tables: Iterable[str] | None = None,
    ) -> None:
        """(Re)build samples, join synopses, and histograms.

        ``seed`` controls the random choice of sample tuples; the
        paper's experiments average over 12–20 different seeds because
        estimation quality "can vary depending on the particular random
        choice of tuples" (Section 6.2). Samples and synopses are
        re-drawn on every call; histograms are deterministic in the
        (immutable) table, so a table whose histograms this process
        already built reuses them. A table with no rows gets no
        statistics: there is nothing to sample, and the estimator's
        Section 3.5 path answers its zero rows exactly.
        """
        names = list(tables) if tables is not None else self.database.table_names
        self.sample_size = sample_size
        self.bump_version()
        try:  # ints and numpy integers; generators/None have no index
            content_seed = operator.index(seed)
        except TypeError:
            content_seed = None
        if content_seed is not None:
            self._sampling_token = derive_seed(
                "statistics", int(content_seed), int(sample_size)
            )
        else:
            self._sampling_token = None
        rngs = spawn_rngs(seed, 2 * len(names))
        for i, name in enumerate(names):
            table = self.database.table(name)
            if table.num_rows == 0:
                continue
            self._samples[name] = TableSample(table, sample_size, rngs[2 * i])
            self._synopses[name] = build_join_synopsis(
                self.database, name, sample_size, rngs[2 * i + 1]
            )
            for column in table.schema.columns:
                if column.column_type in (ColumnType.STRING,):
                    continue
                self._histograms[(name, column.name)] = _shared_histogram(
                    table, column.name, histogram_buckets
                )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def sample_for(self, table_name: str) -> TableSample | None:
        """The single-table sample for ``table_name``, if built."""
        return self._samples.get(table_name)

    def synopsis_for(self, root_table: str) -> JoinSynopsis | None:
        """The join synopsis rooted at ``root_table``, if built."""
        return self._synopses.get(root_table)

    def synopsis_covering(self, tables: set[str]) -> JoinSynopsis | None:
        """The synopsis that estimates an FK join over ``tables``.

        Determines the root relation of the join (the table whose
        primary key is not referenced within the set) and returns its
        synopsis when it covers every table. Returns ``None`` when the
        tables do not form a rooted FK tree or the synopsis is missing.
        """
        try:
            root = self.database.root_relation(tables)
        except CatalogError:
            # Expected: the tables don't form a rooted FK tree, so no
            # synopsis can cover them. Anything else is a real bug and
            # must propagate, not masquerade as "no synopsis".
            return None
        synopsis = self._synopses.get(root)
        if synopsis is not None and synopsis.covers(set(tables)):
            return synopsis
        return None

    def histogram(self, table_name: str, column: str) -> EquiDepthHistogram | None:
        """The histogram on ``table.column``, if built."""
        return self._histograms.get((table_name, column))

    def table_rows(self, table_name: str) -> int:
        """Exact base-table cardinality (always known, per Section 2)."""
        return self.database.table(table_name).num_rows

    # ------------------------------------------------------------------
    # Statistic removal (for fallback-path experiments)
    # ------------------------------------------------------------------
    def drop_synopsis(self, root_table: str) -> None:
        """Remove the join synopsis rooted at ``root_table``."""
        self._synopses.pop(root_table, None)
        self.bump_version()

    def drop_sample(self, table_name: str) -> None:
        """Remove the single-table sample for ``table_name``."""
        self._samples.pop(table_name, None)
        self.bump_version()

    def drop_histograms(self, table_name: str) -> None:
        """Remove every histogram on ``table_name``."""
        for key in [k for k in self._histograms if k[0] == table_name]:
            del self._histograms[key]
        self.bump_version()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health_issues(self) -> list[str]:
        """Consistency problems a session should know about on attach.

        Returns human-readable issue strings, empty when healthy.
        Missing statistics are reported (they route estimates through
        the Section 3.5 fallbacks), except on empty tables, which have
        none to build; internally inconsistent ones —
        row ids outside their table, a synopsis whose root positions
        were lost — are too, so callers can decide whether to degrade
        or rebuild.
        """
        issues: list[str] = []
        if not self._samples and not self._synopses and not self._histograms:
            issues.append("no statistics built (every estimate will fall back)")
            return issues
        for name in self.database.table_names:
            rows = self.database.table(name).num_rows
            if rows == 0:
                continue
            sample = self._samples.get(name)
            if sample is None:
                issues.append(f"table {name!r}: no sample")
            elif len(sample.row_ids) and (
                sample.row_ids.min() < 0 or sample.row_ids.max() >= rows
            ):
                issues.append(f"table {name!r}: sample row ids out of range")
            synopsis = self._synopses.get(name)
            if synopsis is None:
                issues.append(f"table {name!r}: no join synopsis")
            elif synopsis.root_row_ids is None:
                issues.append(
                    f"table {name!r}: synopsis lacks root row ids "
                    "(cannot be persisted)"
                )
        return issues

    def require_synopsis(self, root_table: str) -> JoinSynopsis:
        """Like :meth:`synopsis_for` but raising when missing."""
        synopsis = self._synopses.get(root_table)
        if synopsis is None:
            raise StatisticsError(f"no join synopsis for {root_table!r}")
        return synopsis
