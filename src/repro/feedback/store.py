"""The feedback store: observed cardinalities, namespaced by epoch.

One :class:`FeedbackStore` holds everything a workload has learned
about its own estimates: per ``(table set, expr_key)`` record, the
commutative aggregates of every observed cardinality (count, sum,
min, max) plus the matching estimate aggregates for q-error
reporting. Aggregation is order-independent, so harvesting the same
trace set in any order — or from any number of worker processes —
produces byte-identical store contents.

Records live under a **namespace**. The session layer namespaces by
statistics epoch (``epoch=<version>``), which is the invariant that
makes hot-swaps safe: a :class:`FeedbackProvider` bound to one
namespace structurally cannot see observations harvested under a
different statistics version, so a swap or archive reload can never
alias stale feedback into a fresh posterior. Offline harvesters pick
deterministic namespaces (e.g. ``exp1/seed=3``) so store bytes stay
reproducible across worker counts.

Persistence follows the statistics-archive discipline: serialize to
canonical JSON, write a staging sibling, ``os.replace`` into place;
loads validate the format version and every record field and raise
:class:`FeedbackError` on any corruption.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.core.prior import Prior
from repro.errors import ReproError
from repro.obs.trace import QERROR_FLOOR

#: Version stamped on (and required of) every persisted store.
FEEDBACK_FORMAT_VERSION = 1

#: Observations per key that scale a fold's pseudo-count mass; more
#: executions of the same key add no further mass.
MAX_OBSERVATIONS = 8

_RECORD_FIELDS = (
    "tables",
    "observations",
    "rows_sum",
    "rows_min",
    "rows_max",
    "est_sum",
    "qerr_log_sum",
    "qerr_max",
)


class FeedbackError(ReproError):
    """A feedback store is malformed, or an operation was invalid."""


def feedback_key(tables: Iterable[str], predicate_key: str) -> str:
    """The store key of one estimated subexpression.

    ``predicate_key`` is :func:`repro.expressions.expr_key` of the
    exact predicate the optimizer passes to ``card(tables, ...)`` —
    matching keys is what lets stored observations find the posterior
    they correct.
    """
    return f"{'+'.join(sorted(tables))}|{predicate_key}"


@dataclass(frozen=True)
class FeedbackObservation:
    """Aggregated feedback for one key within one namespace."""

    tables: tuple[str, ...]
    observations: int
    rows_sum: float
    rows_min: float
    rows_max: float
    est_sum: float
    qerr_log_sum: float
    qerr_max: float

    @property
    def mean_rows(self) -> float:
        return self.rows_sum / self.observations

    @property
    def geomean_q_error(self) -> float:
        return 10 ** (self.qerr_log_sum / self.observations)


class FeedbackStore:
    """Thread-safe, persistable map of observed cardinalities.

    ``generation`` increments on every mutation; the session layer
    folds it into plan-cache and estimator-memo keys so a new
    observation invalidates exactly the cached work it should.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._namespaces: dict[str, dict[str, dict]] = {}
        #: key -> number of namespaces holding it, so "does any epoch
        #: know this key" is one probe however many epochs exist.
        self._holders: dict[str, int] = {}
        self._generation = 0

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def record(
        self,
        namespace: str,
        *,
        tables: Iterable[str],
        predicate_key: str,
        observed_rows: float,
        estimated_rows: float | None = None,
    ) -> str:
        """Fold one observed cardinality into the store; returns the key."""
        if not namespace:
            raise FeedbackError("feedback namespace must be non-empty")
        tables = tuple(sorted(tables))
        if not tables:
            raise FeedbackError("feedback record needs at least one table")
        key = feedback_key(tables, predicate_key)
        observed = float(observed_rows)
        estimated = float(estimated_rows) if estimated_rows is not None else 0.0
        if estimated_rows is not None:
            est = max(float(estimated_rows), QERROR_FLOOR)
            act = max(observed, QERROR_FLOOR)
            q = max(est / act, act / est)
        else:
            q = 1.0
        with self._lock:
            record = self._namespaces.get(namespace, {}).get(key)
            if record is None:
                record = {
                    "tables": list(tables),
                    "observations": 0,
                    "rows_sum": 0.0,
                    "rows_min": math.inf,
                    "rows_max": -math.inf,
                    "est_sum": 0.0,
                    "qerr_log_sum": 0.0,
                    "qerr_max": 1.0,
                }
                self._insert(namespace, key, record)
            record["observations"] += 1
            record["rows_sum"] += observed
            record["rows_min"] = min(record["rows_min"], observed)
            record["rows_max"] = max(record["rows_max"], observed)
            record["est_sum"] += estimated
            record["qerr_log_sum"] += math.log10(q)
            record["qerr_max"] = max(record["qerr_max"], q)
            self._generation += 1
        return key

    def _insert(self, namespace: str, key: str, record: dict) -> None:
        """Add a new record (lock held, or the store not yet shared)."""
        self._namespaces.setdefault(namespace, {})[key] = record
        self._holders[key] = self._holders.get(key, 0) + 1

    # ------------------------------------------------------------------
    def observation(
        self, namespace: str, tables: Iterable[str], predicate_key: str
    ) -> FeedbackObservation | None:
        """The aggregate for one key in one namespace, or ``None``."""
        key = feedback_key(tables, predicate_key)
        with self._lock:
            record = self._namespaces.get(namespace, {}).get(key)
            if record is None:
                return None
            return self._observation_from(record)

    def has_key(self, tables: Iterable[str], predicate_key: str) -> bool:
        """Whether any namespace holds this key."""
        key = feedback_key(tables, predicate_key)
        with self._lock:
            return key in self._holders

    @staticmethod
    def _observation_from(record: dict) -> FeedbackObservation:
        return FeedbackObservation(
            tables=tuple(record["tables"]),
            observations=int(record["observations"]),
            rows_sum=float(record["rows_sum"]),
            rows_min=float(record["rows_min"]),
            rows_max=float(record["rows_max"]),
            est_sum=float(record["est_sum"]),
            qerr_log_sum=float(record["qerr_log_sum"]),
            qerr_max=float(record["qerr_max"]),
        )

    # ------------------------------------------------------------------
    def namespaces(self) -> list[str]:
        with self._lock:
            return sorted(self._namespaces)

    def size(self, namespace: str | None = None) -> int:
        """Number of keys in one namespace (or across all of them)."""
        with self._lock:
            if namespace is not None:
                return len(self._namespaces.get(namespace, {}))
            return sum(len(slot) for slot in self._namespaces.values())

    def reset(self, namespace: str | None = None) -> int:
        """Drop one namespace (or everything); returns keys dropped."""
        with self._lock:
            if namespace is None:
                dropped = sum(
                    len(slot) for slot in self._namespaces.values()
                )
                self._namespaces.clear()
                self._holders.clear()
            else:
                slot = self._namespaces.pop(namespace, {})
                dropped = len(slot)
                for key in slot:
                    if self._holders[key] == 1:
                        del self._holders[key]
                    else:
                        self._holders[key] -= 1
            if dropped:
                self._generation += 1
            return dropped

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot (deterministic, sorted keys)."""
        with self._lock:
            return {
                "format_version": FEEDBACK_FORMAT_VERSION,
                "namespaces": {
                    namespace: {
                        key: {
                            field: (
                                list(record[field])
                                if field == "tables"
                                else record[field]
                            )
                            for field in _RECORD_FIELDS
                        }
                        for key, record in sorted(slot.items())
                    }
                    for namespace, slot in sorted(self._namespaces.items())
                },
            }

    def to_bytes(self) -> bytes:
        """Canonical serialized form — byte-identical for equal contents."""
        return (
            json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            + b"\n"
        )

    def save(self, path: str | Path) -> Path:
        """Atomically persist the store to ``path``.

        Mirrors the statistics-archive discipline: serialize fully,
        write a staging sibling, then ``os.replace`` into place so a
        reader can never observe a half-written store.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.parent / f".{path.name}.staging-{os.getpid()}"
        data = self.to_bytes()
        try:
            with staging.open("wb") as handle:
                handle.write(data)
            os.replace(staging, path)
        except BaseException:
            staging.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FeedbackStore":
        """Load and validate a persisted store.

        Every corruption mode — unreadable bytes, wrong format
        version, structurally invalid records — raises
        :class:`FeedbackError`.
        """
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FeedbackError(
                f"feedback store {path} unreadable: {exc}"
            ) from None
        if not isinstance(raw, dict):
            raise FeedbackError(f"feedback store {path} is not an object")
        version = raw.get("format_version")
        if version != FEEDBACK_FORMAT_VERSION:
            raise FeedbackError(
                f"feedback store {path}: format version {version!r} "
                f"unsupported (expected {FEEDBACK_FORMAT_VERSION})"
            )
        namespaces = raw.get("namespaces")
        if not isinstance(namespaces, dict):
            raise FeedbackError(
                f"feedback store {path}: missing namespaces object"
            )
        store = cls()
        for namespace, slot in namespaces.items():
            if not isinstance(slot, dict):
                raise FeedbackError(
                    f"feedback store {path}: namespace {namespace!r} "
                    "is not an object"
                )
            for key, record in slot.items():
                if not isinstance(record, dict) or not all(
                    field in record for field in _RECORD_FIELDS
                ):
                    raise FeedbackError(
                        f"feedback store {path}: record {key!r} in "
                        f"{namespace!r} is missing fields"
                    )
                try:
                    clean = {
                        "tables": [str(t) for t in record["tables"]],
                        "observations": int(record["observations"]),
                        "rows_sum": float(record["rows_sum"]),
                        "rows_min": float(record["rows_min"]),
                        "rows_max": float(record["rows_max"]),
                        "est_sum": float(record["est_sum"]),
                        "qerr_log_sum": float(record["qerr_log_sum"]),
                        "qerr_max": float(record["qerr_max"]),
                    }
                except (TypeError, ValueError) as exc:
                    raise FeedbackError(
                        f"feedback store {path}: record {key!r} in "
                        f"{namespace!r} has invalid values ({exc})"
                    ) from None
                if clean["observations"] < 1:
                    raise FeedbackError(
                        f"feedback store {path}: record {key!r} in "
                        f"{namespace!r} has no observations"
                    )
                store._insert(namespace, key, clean)
        return store

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Per-namespace summary for the ``repro feedback`` CLI."""
        with self._lock:
            out: dict = {}
            for namespace in sorted(self._namespaces):
                slot = self._namespaces[namespace]
                total_obs = sum(r["observations"] for r in slot.values())
                out[namespace] = {
                    "keys": len(slot),
                    "observations": total_obs,
                    "records": {
                        key: {
                            "tables": list(record["tables"]),
                            "observations": record["observations"],
                            "mean_rows": record["rows_sum"]
                            / record["observations"],
                            "geomean_q_error": 10
                            ** (
                                record["qerr_log_sum"]
                                / record["observations"]
                            ),
                            "max_q_error": record["qerr_max"],
                        }
                        for key, record in sorted(slot.items())
                    },
                }
            return out


class FeedbackProvider:
    """One store namespace bound to an estimator as pseudo-counts.

    The provider is what the :class:`RobustCardinalityEstimator` calls
    on its hot path. Given the table set, predicate key, and the total
    (cross-product) row count the estimator is about to scale its
    selectivity by, it returns extra Beta pseudo-counts
    ``(extra_alpha, extra_beta)`` representing the stored
    observations: observed selectivity ``s = mean_rows / total`` with
    mass ``min(observations, MAX_OBSERVATIONS) * weight``.

    The namespace is the stale-feedback fence: a lookup consults
    exactly the bound namespace and counts any key that exists *only*
    under foreign namespaces as ``stale_refused``.
    """

    def __init__(
        self,
        store: FeedbackStore,
        namespace: str,
        *,
        weight: float = 64.0,
    ) -> None:
        if weight <= 0:
            raise FeedbackError("feedback weight must be positive")
        self.store = store
        self.namespace = namespace
        self.weight = float(weight)
        self.folds = 0
        self.misses = 0
        self.stale_refused = 0

    @property
    def generation(self) -> int:
        """The underlying store's mutation counter (cache token)."""
        return self.store.generation

    def pseudo_counts(
        self, tables: Iterable[str], predicate_key: str, total_rows: float
    ) -> tuple[float, float, dict] | None:
        """Extra Beta pseudo-counts for one lookup, or ``None``.

        Returns ``(extra_alpha, extra_beta, attribution)`` where the
        attribution dict is what the estimator stamps into the
        feedback span.
        """
        if total_rows <= 0:
            return None
        obs = self.store.observation(self.namespace, tables, predicate_key)
        if obs is None:
            # Missing here but held somewhere: a foreign epoch's.
            if self.store.has_key(tables, predicate_key):
                self.stale_refused += 1
            else:
                self.misses += 1
            return None
        selectivity = min(max(obs.mean_rows / float(total_rows), 0.0), 1.0)
        mass = self.weight * min(obs.observations, MAX_OBSERVATIONS)
        extra_alpha = mass * selectivity
        extra_beta = mass * (1.0 - selectivity)
        self.folds += 1
        return (
            extra_alpha,
            extra_beta,
            {
                "namespace": self.namespace,
                "observations": obs.observations,
                "observed_selectivity": selectivity,
                "pseudo_mass": mass,
            },
        )

    def adjusted_prior(self, prior: Prior, extra: tuple[float, float]) -> Prior:
        """Fold pseudo-counts into a prior (keeps the LUT path usable)."""
        return Prior(
            prior.alpha + extra[0],
            prior.beta + extra[1],
            name=f"{prior.name}+feedback",
        )

    def counters(self) -> dict:
        return {
            "folds": self.folds,
            "misses": self.misses,
            "stale_refused": self.stale_refused,
            # No path serves a foreign namespace any more, so this is 0
            # by construction; the key and SessionFeedback.stale_hits()
            # stay because bench/traced.py and the BENCH_feedback.json
            # gate read them.
            "stale_hits": 0,
        }
