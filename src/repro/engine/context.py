"""Execution context threaded through a physical plan."""

from __future__ import annotations

from repro.catalog import Database
from repro.engine.counters import WorkCounters
from repro.engine.scancache import ScanCache


class ExecutionContext:
    """State shared by all operators of one plan execution.

    Holds the database being queried, the work counters the operators
    charge into and, optionally, a ``scan_cache`` sharing base-scan
    results across plan executions (see :mod:`repro.engine.scancache`).
    A caller that wants to know what each operator did passes
    mappings the execution fills, keyed by operator object, for every
    operator it runs: ``operator_rows`` with the operator's output row
    count, ``operator_work`` with the :class:`WorkCounters` charged
    between its entry and exit (its subtree's total; a snapshot
    difference, so it costs a counter copy and a subtraction per
    operator). Without a mapping that fact is not recorded.

    ``prefix_reads`` maps an operator to how many leading rows of its
    output the plan reads, where that is known before it runs: a
    :class:`~repro.engine.sort.Limit` enters the aggregate whose groups
    it reads in key order, and the aggregate takes the entry when it
    runs.
    """

    def __init__(
        self,
        database: Database,
        *,
        scan_cache: ScanCache | None = None,
        operator_rows: dict | None = None,
        operator_work: dict | None = None,
    ) -> None:
        self.database = database
        self.counters = WorkCounters()
        self.scan_cache = scan_cache
        self.operator_rows = operator_rows
        self.operator_work = operator_work
        self.prefix_reads: dict = {}

    def operator_record(self, plan) -> list[tuple[int, WorkCounters]]:
        """``(output rows, subtree work)`` per operator of ``plan``, in
        ``plan.walk()`` order, from an execution given both mappings.

        Addressed by position, the record also describes any other plan
        object with the same ``signature()`` — which is how a cached
        execution is attributed to the plan in hand.
        """
        return [
            (self.operator_rows[op], self.operator_work[op])
            for op in plan.walk()
        ]

    def scan_memo(self, key: tuple, compute):
        """Memoize ``compute()`` under ``key`` in the shared scan cache.

        Falls back to calling ``compute()`` directly when no cache is
        configured or the cache is pinned to a different database.
        """
        cache = self.scan_cache
        if cache is None or not cache.valid_for(self.database):
            return compute()
        return cache.get_or_compute(key, compute)
