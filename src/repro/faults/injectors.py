"""Fault implementations: archive corruptors and the faulty estimator.

Archive corruptions reproduce the real-world failure modes of
persisted statistics — a crash mid-copy truncates a ``.npz``, a manual
edit desynchronizes the manifest from the arrays, statistics built
against yesterday's table reference rows that no longer exist. Each
corruptor mutates a *copy* of a saved archive; the loader is expected
to reject every one of them with a clean
:class:`~repro.errors.StatisticsError`, which the session converts
into attributed degraded-mode operation.

:class:`FaultyEstimator` wraps any
:class:`~repro.core.CardinalityEstimator` and makes it fail or stall
deterministically (seeded RNG), modeling estimation backends that time
out or crash under load.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.core.estimator import CardinalityEstimator
from repro.errors import EstimationError
from repro.faults.plan import FaultPlanError, FaultSpec


def _npz_targets(archive: pathlib.Path) -> list[pathlib.Path]:
    targets = sorted(archive.glob("*.npz"))
    if not targets:
        raise FaultPlanError(f"no .npz files to corrupt under {archive}")
    return targets


def _pick_npz(
    archive: pathlib.Path, spec: FaultSpec, rng: np.random.Generator
) -> pathlib.Path:
    if spec.table is not None:
        candidate = archive / f"{spec.table}.npz"
        if candidate.exists():
            return candidate
    targets = _npz_targets(archive)
    return targets[int(rng.integers(0, len(targets)))]


def apply_archive_fault(
    archive, spec: FaultSpec, rng: np.random.Generator
) -> str:
    """Corrupt a statistics archive copy in place.

    Returns a short description of what was done (for the report).
    Every mode leaves an archive that ``load_statistics`` must reject
    with :class:`~repro.errors.StatisticsError`.
    """
    archive = pathlib.Path(archive)
    manifest_path = archive / "manifest.json"
    if spec.kind == "archive-truncate-npz":
        target = _pick_npz(archive, spec, rng)
        data = target.read_bytes()
        target.write_bytes(data[: max(1, len(data) // 2)])
        return f"truncated {target.name} to {len(data) // 2} bytes"
    if spec.kind == "archive-manifest-mismatch":
        manifest = json.loads(manifest_path.read_text())
        tables = sorted(manifest.get("tables", {}))
        if not tables:
            raise FaultPlanError("manifest lists no tables to mismatch")
        name = (
            spec.table
            if spec.table in manifest["tables"]
            else tables[int(rng.integers(0, len(tables)))]
        )
        # Promise an array the .npz does not contain.
        manifest["tables"][name].setdefault("histograms", []).append(
            "nonexistent_column"
        )
        manifest_path.write_text(json.dumps(manifest))
        return f"manifest promises missing arrays for {name!r}"
    if spec.kind == "archive-oob-row-ids":
        target = _pick_npz(archive, spec, rng)
        with np.load(target) as handle:
            arrays = {key: handle[key] for key in handle.files}
        key = "sample_row_ids" if "sample_row_ids" in arrays else (
            "synopsis_row_ids" if "synopsis_row_ids" in arrays else None
        )
        if key is None:
            raise FaultPlanError(f"{target.name} holds no row-id arrays")
        ids = arrays[key].copy()
        ids[int(rng.integers(0, len(ids)))] = 2**40  # beyond any table
        arrays[key] = ids
        np.savez_compressed(target, **arrays)
        return f"out-of-range {key} in {target.name}"
    if spec.kind == "archive-missing-npz":
        target = _pick_npz(archive, spec, rng)
        target.unlink()
        return f"deleted {target.name}"
    if spec.kind == "archive-garbage-manifest":
        manifest_path.write_text('{"format_version": 1, "tables": [broken')
        return "manifest replaced with invalid JSON"
    raise FaultPlanError(f"{spec.kind!r} is not an archive fault")


class FaultyEstimator(CardinalityEstimator):
    """An estimator that deterministically fails or stalls.

    Wraps an inner estimator and forwards every protocol method (a
    method left to the base class would answer from the wrapper's own
    empty state, not the inner estimator's); each call first pays the
    configured delay, then fires :class:`~repro.errors.EstimationError`
    with probability ``error_rate`` (drawn from the seeded ``rng``),
    and only then delegates. Counters expose how often each fault fired so
    the harness can assert the session attributed every degradation.
    """

    def __init__(
        self,
        inner: CardinalityEstimator,
        rng: np.random.Generator,
        error_rate: float = 0.0,
        delay_seconds: float = 0.0,
    ) -> None:
        self.inner = inner
        self.rng = rng
        self.error_rate = error_rate
        self.delay_seconds = delay_seconds
        self.calls = 0
        self.errors_fired = 0
        self.delays_fired = 0

    def _maybe_fault(self) -> None:
        self.calls += 1
        if self.delay_seconds:
            self.delays_fired += 1
            time.sleep(self.delay_seconds)
        if self.error_rate and self.rng.random() < self.error_rate:
            self.errors_fired += 1
            raise EstimationError(
                f"injected estimator fault (call {self.calls})"
            )

    def estimate(self, tables, predicate, hint=None):
        self._maybe_fault()
        return self.inner.estimate(tables, predicate, hint=hint)

    def estimate_many(self, tables, predicate, thresholds):
        self._maybe_fault()
        return self.inner.estimate_many(tables, predicate, thresholds)

    def condition_selectivity(self, condition):
        self._maybe_fault()
        return self.inner.condition_selectivity(condition)

    def estimate_groups(self, tables, group_by, predicate, rows, hint=None):
        self._maybe_fault()
        return self.inner.estimate_groups(
            tables, group_by, predicate, rows, hint=hint
        )

    def describe(self) -> str:
        return f"faulty({self.inner.describe()})"
