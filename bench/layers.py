"""The benchmark's own tracer: which public callables mark each layer
boundary, how they are wrapped, and what a span tree says afterwards.

Nothing in ``src/`` is edited. :data:`LAYER_TABLE` names public
callables; :class:`Tracer` swaps each for a timing wrapper when a traced
pass starts and puts the original back when it ends. An entry whose
callable no longer exists is listed in ``Tracer.missing`` instead of
raising, so a later refactor shows up as a vanished span, not as a
broken benchmark. Estimator calls are timed through the public
``Session.estimator_decorator`` hook (:meth:`Tracer.estimator_decorator`).

Spans are ``(id, parent, name, start, end, request, thread, tag)`` tuples
kept in memory. A span's self time is its duration minus the part of it
covered by its children, so the self times of one request's spans sum to
the request span by construction; ``check_tree`` verifies the
construction held (children inside parents, self >= 0, sum within 5 %).
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

#: Name of the span the harness opens around each request it issues.
REQUEST = "bench.request"

# (span name, module, dotted attribute). The layer is the name's prefix.
LAYER_TABLE = (
    ("sql.parse_query", "repro.sql", "parse_query"),
    ("expressions.classify_conjuncts", "repro.expressions", "classify_conjuncts"),
    ("expressions.split_sargable", "repro.expressions", "split_sargable"),
    ("expressions.expr_key", "repro.expressions", "expr_key"),
    ("service.query_fingerprint", "repro.service", "query_fingerprint"),
    ("service.prepare", "repro.service", "Session.prepare"),
    ("service.prepare_many", "repro.service", "Session.prepare_many"),
    ("service.execute", "repro.service", "PreparedQuery.execute"),
    ("service.refresh_statistics", "repro.service", "Session.refresh_statistics"),
    ("selection.sample_quantiles", "repro.selection", "sample_quantiles"),
    ("selection.penalty_matrix", "repro.selection", "penalty_matrix"),
    ("selection.risk_scores", "repro.selection", "risk_scores"),
    ("selection.select_index", "repro.selection", "select_index"),
    ("selection.penalty_summary", "repro.selection", "penalty_summary"),
    ("optimizer.optimize", "repro.optimizer", "Optimizer.optimize"),
    ("optimizer.optimize_many", "repro.optimizer", "Optimizer.optimize_many"),
    ("optimizer.optimize_penalty", "repro.optimizer", "Optimizer.optimize_penalty"),
    ("cost.time_from_counters", "repro.cost", "CostModel.time_from_counters"),
    ("engine.SeqScan", "repro.engine", "SeqScan.execute"),
    ("engine.IndexSeek", "repro.engine", "IndexSeek.execute"),
    ("engine.IndexIntersect", "repro.engine", "IndexIntersect.execute"),
    ("engine.IndexUnionSeek", "repro.engine", "IndexUnionSeek.execute"),
    ("engine.Filter", "repro.engine", "Filter.execute"),
    ("engine.Project", "repro.engine", "Project.execute"),
    ("engine.HashJoin", "repro.engine", "HashJoin.execute"),
    ("engine.MergeJoin", "repro.engine", "MergeJoin.execute"),
    ("engine.IndexedNLJoin", "repro.engine", "IndexedNLJoin.execute"),
    ("engine.NonEquiJoin", "repro.engine", "NonEquiJoin.execute"),
    ("engine.StarSemiJoin", "repro.engine", "StarSemiJoin.execute"),
    ("engine.HashAggregate", "repro.engine", "HashAggregate.execute"),
    ("engine.Sort", "repro.engine", "Sort.execute"),
    ("engine.Limit", "repro.engine", "Limit.execute"),
    ("feedback.observe", "repro.feedback", "SessionFeedback.observe"),
    ("stats.update_statistics", "repro.stats", "StatisticsManager.update_statistics"),
    ("stats.save_statistics", "repro.stats", "save_statistics"),
    ("stats.load_statistics", "repro.stats", "load_statistics"),
    ("serving.try_admit", "repro.serving", "AdmissionController.try_admit"),
    ("serving.release", "repro.serving", "AdmissionController.release"),
    ("serving.serve", "repro.serving", "QueryServer.serve"),
)

#: Spans whose first positional arguments identify the request they
#: belong to, so a worker thread's spans can be joined to the client's
#: ``serve`` span afterwards (see :func:`adopt_worker_spans`).
_TAGGED = {
    "serving.serve": lambda args: args[1:3],
    "service.prepare": lambda args: (id(args[0]), *args[1:2]),
    "cost.time_from_counters": lambda args: args[1:2],
}

#: ``ScanCache.get_or_compute`` is counted, not timed: a hit and a miss
#: differ only in whether ``compute`` runs.
_SCAN_CACHE = ("repro.engine", "ScanCache.get_or_compute")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    request: int
    thread: int
    tag: object = None

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.frames: list[int] = []
        self.request = -1


class _Count:
    """A counter safe to bump from the server's worker threads."""

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def add(self) -> None:
        with self._lock:
            self.value += 1


class Tracer:
    """Wraps the table's callables; collects spans while installed."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._state = _ThreadState()
        self._records: list[tuple] = []
        self._undo: list[tuple] = []
        self.missing: list[str] = []
        self.scan_lookups = _Count()
        self.scan_misses = _Count()
        #: Every estimator the decorator saw (for memo hit counts).
        self.estimators: list = []

    # -- wrapping -------------------------------------------------------
    def _timed(self, name: str, function):
        ids, state, records = self._ids, self._state, self._records
        tag_of = _TAGGED.get(name)

        def traced(*args, **kwargs):
            frames = state.frames
            span_id = next(ids)
            parent = frames[-1] if frames else -1
            frames.append(span_id)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                records.append(
                    (
                        span_id, parent, name, start, end, state.request,
                        threading.get_ident(),
                        tag_of(args) if tag_of else None,
                    )
                )

        traced.__wrapped__ = function
        return traced

    def _counted_scan_cache(self, function):
        lookups, misses = self.scan_lookups, self.scan_misses

        def get_or_compute(cache, key, compute):
            def counted():
                misses.add()
                return compute()

            lookups.add()
            return function(cache, key, counted)

        return get_or_compute

    def install(self) -> None:
        for name, module_name, path in LAYER_TABLE:
            self._replace(name, module_name, path, lambda f, n=name: self._timed(n, f))
        self._replace(
            "engine.scan_cache", *_SCAN_CACHE, self._counted_scan_cache
        )

    def _replace(self, name, module_name, path, wrap) -> None:
        try:
            owner = importlib.import_module(module_name)
            *holders, attribute = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        wrapper = wrap(original)
        if holders:
            targets = [owner]
        else:
            # A module-level function is bound by name wherever it was
            # imported; replace every such binding inside the package.
            targets = [
                module
                for loaded, module in list(sys.modules.items())
                if loaded.partition(".")[0] == "repro"
                and getattr(module, attribute, None) is original
            ]
        for target in targets:
            setattr(target, attribute, wrapper)
            self._undo.append((target, attribute, original))

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._undo):
            setattr(target, attribute, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- estimator proxy ------------------------------------------------
    def estimator_decorator(self, estimator):
        """For ``Session.estimator_decorator``: a forwarding proxy that
        times the three protocol methods.

        The proxy is a subclass of the estimator's own class sharing its
        state, so ``isinstance`` checks in the optimizer (group-count
        estimation) behave as they do untraced.
        """
        base = type(estimator)
        proxy_class = type(
            f"Traced{base.__name__}",
            (base,),
            {
                method: self._timed(f"core.{method}", getattr(base, method))
                for method in ("estimate", "estimate_many", "condition_selectivity")
            },
        )
        proxy = object.__new__(proxy_class)
        proxy.__dict__ = estimator.__dict__
        self.estimators.append(proxy)
        return proxy

    # -- requests -------------------------------------------------------
    def begin_request(self, request: int) -> None:
        state = self._state
        state.request = request
        state.frames.append(next(self._ids))
        state.started = perf_counter()

    def end_request(self) -> None:
        end = perf_counter()
        state = self._state
        self._records.append(
            (
                state.frames.pop(), -1, REQUEST, state.started, end,
                state.request, threading.get_ident(), None,
            )
        )
        state.request = -1

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._records]


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
def adopt_worker_spans(spans: list[Span], session_tenants: dict) -> list[Span]:
    """Join a server worker's spans to the client's ``serve`` span.

    The worker thread runs ``Session.prepare`` (then the plan's
    ``execute``) for an operation some client thread is blocked on
    inside ``QueryServer.serve``; only public callables are wrapped, so
    the hand-off itself is invisible. The link is rebuilt from what the
    spans do show: a worker root span belongs to the ``serve`` span of
    the same (tenant, SQL text) whose interval contains it.
    ``session_tenants`` maps ``id(session)`` to the tenant name.
    """
    serves: dict[tuple, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name == "serving.serve":
            serves[span.tag].append(span)
    starts = {}
    for tag, group in serves.items():
        group.sort(key=lambda s: s.start)
        starts[tag] = [s.start for s in group]

    taken: set[int] = set()
    owner_of: dict[int, Span] = {}  # thread -> serve span last adopted
    adopted: dict[int, Span] = {}  # worker root span id -> serve span
    roots = sorted(
        (s for s in spans if s.parent == -1 and s.request == -1),
        key=lambda s: s.start,
    )
    for root in roots:
        serve = None
        if root.name == "service.prepare":
            session_id, sql = root.tag
            tag = (session_tenants.get(session_id), sql)
            group = serves.get(tag, ())
            at = bisect.bisect_right(starts.get(tag, ()), root.start)
            for candidate in reversed(group[max(0, at - 4):at]):
                if candidate.end >= root.end and candidate.id not in taken:
                    serve = candidate
                    taken.add(candidate.id)
                    break
        else:
            last = owner_of.get(root.thread)
            if last is not None and last.start <= root.start and root.end <= last.end:
                serve = last
        if serve is not None:
            owner_of[root.thread] = serve
            adopted[root.id] = serve

    by_id = {s.id: s for s in spans}
    request_of: dict[int, int] = {}

    def request(span: Span) -> int:
        if span.request != -1:
            return span.request
        if span.id not in request_of:
            if span.id in adopted:
                found = adopted[span.id].request
            elif span.parent in by_id:
                found = request(by_id[span.parent])
            else:
                found = -1
            request_of[span.id] = found
        return request_of[span.id]

    out = []
    for span in spans:
        parent = adopted[span.id].id if span.id in adopted else span.parent
        out.append(
            Span(
                span.id, parent, span.name, span.start, span.end,
                request(span), span.thread, span.tag,
            )
        )
    return out


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent != -1:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            low = max(child.start, reach)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        out[span.id] = span.seconds - covered
    return out


def check_tree(
    spans: list[Span], own: dict[int, float] | None = None, tolerance: float = 0.05
) -> list[str]:
    """Violations of span-tree well-formedness (empty when sound).
    ``own`` is :func:`self_seconds` of ``spans`` when already computed."""
    problems = []
    by_id = {s.id: s for s in spans}
    if own is None:
        own = self_seconds(spans)
    slack = 1e-6
    for span in spans:
        if own[span.id] < -slack:
            problems.append(f"negative self time in {span.name} #{span.id}")
        parent = by_id.get(span.parent)
        if parent is not None and (
            span.start < parent.start - slack or span.end > parent.end + slack
        ):
            problems.append(f"{span.name} #{span.id} escapes {parent.name}")
    totals: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.request != -1:
            totals[span.request] += own[span.id]
    for span in spans:
        if span.parent == -1 and span.request != -1:
            if abs(totals[span.request] - span.seconds) > tolerance * span.seconds:
                problems.append(
                    f"request {span.request}: self times sum to "
                    f"{totals[span.request]:.6f}s of {span.seconds:.6f}s"
                )
    return problems


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w") as out:
        for span in spans:
            record = {
                "id": span.id, "parent": span.parent, "name": span.name,
                "start": span.start, "end": span.end,
                "request": span.request, "thread": span.thread,
            }
            out.write(json.dumps(record) + "\n")
